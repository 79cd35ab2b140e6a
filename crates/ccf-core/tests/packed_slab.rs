//! The entry table stores a slot's attribute fingerprints bit-packed at `|α|` bits per
//! column. At every width, the answers of the fingerprint-vector variants must be
//! exactly those of a reference model that keeps one `u16` per column: a row is
//! deduplicated iff its key already holds the same fingerprint vector, and a query
//! matches iff one of the key's vectors has, in every constrained column, the
//! fingerprint of some candidate value. (The Bloom variant stores no fingerprint
//! vector; its byte-level sketch records are pinned against `TinyBloom` in
//! `attr.rs`.)

use ccf_core::{
    CcfParams, ChainedCcf, ColumnPredicate, InsertFailure, InsertOutcome, MixedCcf, PlainCcf,
    Predicate,
};
use ccf_hash::AttrFingerprinter;

const NUM_ATTRS: usize = 3;
const KEYS: u64 = 40;

fn params(attr_bits: u32) -> CcfParams {
    CcfParams {
        num_buckets: 1 << 10,
        entries_per_bucket: 6,
        fingerprint_bits: 16,
        attr_bits,
        num_attrs: NUM_ATTRS,
        max_dupes: 3,
        seed: 0x5EED ^ u64::from(attr_bits),
        ..CcfParams::default()
    }
}

/// A deterministic value stream: small values (stored exactly below `2^|α|`) mixed
/// with large ones (hashed), so narrow widths see attribute-fingerprint collisions.
struct Values(u64);

impl Values {
    fn next(&mut self, col: usize) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let x = self.0 >> 33;
        match col {
            0 => x % 24,
            _ => x % 100_000,
        }
    }

    fn row(&mut self) -> Vec<u64> {
        (0..NUM_ATTRS).map(|col| self.next(col)).collect()
    }
}

/// The one-`u16`-per-column reference: each key's stored fingerprint vectors.
struct Model {
    attr_fp: AttrFingerprinter,
    vectors: Vec<Vec<Vec<u16>>>,
}

impl Model {
    fn new(attr_fp: &AttrFingerprinter) -> Self {
        Self {
            attr_fp: attr_fp.clone(),
            vectors: vec![Vec::new(); KEYS as usize],
        }
    }

    /// The outcome the filter must report for inserting `row` under `key`.
    fn insert(&mut self, key: u64, row: &[u64]) -> InsertOutcome {
        let vector = self.attr_fp.fingerprint_vector(row);
        let stored = &mut self.vectors[key as usize];
        if stored.contains(&vector) {
            InsertOutcome::Deduplicated
        } else {
            stored.push(vector);
            InsertOutcome::Inserted
        }
    }

    fn query(&self, key: u64, pred: &Predicate) -> bool {
        self.vectors[key as usize].iter().any(|vector| {
            pred.conditions()
                .iter()
                .enumerate()
                .all(|(col, cond)| match cond.candidate_values() {
                    None => true,
                    Some(values) => values
                        .iter()
                        .any(|&v| self.attr_fp.fingerprint(col, v) == vector[col]),
                })
        })
    }
}

/// Predicates over every stored row, plus random equality and in-list probes.
fn predicates(rows: &[(u64, Vec<u64>)], values: &mut Values) -> Vec<Predicate> {
    let mut preds: Vec<Predicate> = rows
        .iter()
        .map(|(_, row)| {
            let mut p = Predicate::any(NUM_ATTRS);
            for (col, &v) in row.iter().enumerate() {
                p = p.and_eq(col, v);
            }
            p
        })
        .collect();
    for i in 0..200 {
        let col = i % NUM_ATTRS;
        preds.push(Predicate::any(NUM_ATTRS).and_eq(col, values.next(col)));
        let list = vec![values.next(col), values.next(col), values.next(col)];
        let mut conditions = vec![ColumnPredicate::Any; NUM_ATTRS];
        conditions[col] = ColumnPredicate::InList(list);
        conditions[(col + 1) % NUM_ATTRS] = ColumnPredicate::Eq(values.next((col + 1) % 3));
        preds.push(Predicate::new(conditions));
    }
    preds
}

/// Insert `rows_per_key` rows per key through `insert`, checking every outcome
/// against the model, then every (key, predicate) answer through `query`.
fn check_against_model(
    attr_bits: u32,
    rows_per_key: usize,
    attr_fp: &AttrFingerprinter,
    mut insert: impl FnMut(u64, &[u64]) -> Result<InsertOutcome, InsertFailure>,
    query: impl Fn(u64, &Predicate) -> bool,
) {
    let mut values = Values(u64::from(attr_bits) * 7919);
    let mut model = Model::new(attr_fp);
    let mut rows = Vec::new();
    for key in 0..KEYS {
        let mut prev = values.row();
        for i in 0..rows_per_key {
            // Every fourth row repeats the last one (a dedupe at any width), every
            // third changes one hashed column (a dedupe only where it collides).
            let row = match i % 4 {
                3 => prev.clone(),
                2 => {
                    let mut row = prev.clone();
                    row[1] = values.next(1);
                    row
                }
                _ => values.row(),
            };
            prev = row.clone();
            assert_eq!(
                insert(key, &row),
                Ok(model.insert(key, &row)),
                "{attr_bits}-bit α: insert of {row:?} under key {key}"
            );
            rows.push((key, row));
        }
    }
    let deduplicated = rows.len() - model.vectors.iter().map(Vec::len).sum::<usize>();
    if rows_per_key > 3 {
        assert!(deduplicated >= KEYS as usize, "repeated rows must dedupe");
    }
    let preds = predicates(&rows, &mut values);
    let mut hits = 0;
    for key in 0..KEYS {
        for pred in &preds {
            let expected = model.query(key, pred);
            assert_eq!(
                query(key, pred),
                expected,
                "{attr_bits}-bit α: key {key}, {pred:?}"
            );
            hits += usize::from(expected);
        }
    }
    assert!(hits > 0 && hits < KEYS as usize * preds.len());
}

const WIDTHS: [u32; 4] = [4, 8, 9, 16];

#[test]
fn plain_answers_and_dedupes_like_the_word_per_column_model() {
    for attr_bits in WIDTHS {
        let mut f = PlainCcf::new(params(attr_bits));
        let attr_fp = f.attr_fingerprinter().clone();
        let f = std::cell::RefCell::new(&mut f);
        check_against_model(
            attr_bits,
            8,
            &attr_fp,
            |k, row| f.borrow_mut().insert_row(k, row),
            |k, pred| f.borrow().query(k, pred),
        );
    }
}

#[test]
fn chained_answers_and_dedupes_like_the_word_per_column_model() {
    for attr_bits in WIDTHS {
        let mut f = ChainedCcf::new(params(attr_bits));
        let attr_fp = f.attr_fingerprinter().clone();
        let f = std::cell::RefCell::new(&mut f);
        check_against_model(
            attr_bits,
            20,
            &attr_fp,
            |k, row| f.borrow_mut().insert_row(k, row),
            |k, pred| f.borrow().query(k, pred),
        );
        assert!(f.borrow().max_chain_seen() > 1, "chains must be exercised");
    }
}

#[test]
fn mixed_vector_slots_answer_and_dedupe_like_the_word_per_column_model() {
    // At most d rows per key, so no group converts and every slot is a vector slot.
    for attr_bits in WIDTHS {
        let mut f = MixedCcf::new(params(attr_bits));
        let attr_fp = f.attr_fingerprinter().clone();
        let f = std::cell::RefCell::new(&mut f);
        check_against_model(
            attr_bits,
            3,
            &attr_fp,
            |k, row| f.borrow_mut().insert_row(k, row),
            |k, pred| f.borrow().query(k, pred),
        );
        assert_eq!(f.borrow().conversions(), 0);
    }
}
