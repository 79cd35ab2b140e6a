//! Differential tests of the one-pass chained delete against the algorithm it
//! replaced: walk the chain's pairs, list the distinct buckets by first visit with two
//! sorts, take the last match in that order, then repair by rescanning the chain until
//! no pair in front of the deepest copy is dented. The reference is kept here, beside
//! the tests, and runs on a clone of the filter before every delete; the two must
//! agree on the answer and on every slot of every bucket.
//!
//! The streams use 4–6-bit fingerprints, 8–64 buckets and a small key pool, so keys
//! share κ, chains are long against the table and hops land on pairs a shallower depth
//! already visited (aliasing) — the cases where the one-pass repair could drift.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;

/// Append to `walk` the pairs a walk for `fp` from `home` visits: pairs are appended
/// while saturated and the first non-saturated pair ends the list.
fn walk_pairs(f: &ChainedCcf, fp: u16, home: usize, walk: &mut Vec<(usize, usize)>) {
    let mut l = home;
    for depth in 0..f.chain.max_walk {
        let l_alt = f.table.geometry().alt_bucket(l, fp);
        walk.push((l, l_alt));
        if f.table.count_in_pair(fp, l, l_alt) < f.chain.max_dupes {
            break;
        }
        l = f.chain.hop(f.table.geometry(), l, l_alt, fp, depth);
    }
}

/// Append to `walk`, which holds a walked pair list, the distinct buckets of those
/// pairs in first-visit order as `(bucket, visit)`, `visit = 2 · depth + side`.
fn append_visited_buckets(walk: &mut Vec<(usize, usize)>) {
    let num_pairs = walk.len();
    for depth in 0..num_pairs {
        let (l, l_alt) = walk[depth];
        walk.extend([(l, 2 * depth), (l_alt, 2 * depth + 1)]);
    }
    walk[num_pairs..].sort_unstable();
    let mut kept = num_pairs;
    for i in num_pairs..walk.len() {
        if kept == num_pairs || walk[kept - 1].0 != walk[i].0 {
            walk[kept] = walk[i];
            kept += 1;
        }
    }
    walk.truncate(kept);
    walk[num_pairs..].sort_unstable_by_key(|&(_, visit)| visit);
}

/// Pull the deepest remaining copy into the shallowest dented pair until no pair in
/// front of the deepest copy is dented; returns the number of moves.
fn repair_chain(
    f: &mut ChainedCcf,
    fp: u16,
    pairs: &[(usize, usize)],
    visited: &[(usize, usize)],
) -> usize {
    let b = f.params.entries_per_bucket;
    let mut moves = 0;
    loop {
        let t = &f.table;
        let deepest = visited
            .iter()
            .filter(|&&(bkt, _)| t.keys().contains(bkt, fp))
            .map(|&(_, visit)| visit / 2)
            .max();
        let Some(deepest) = deepest else {
            return moves;
        };
        let deficit = pairs[..deepest]
            .iter()
            .position(|&(l, l_alt)| t.count_in_pair(fp, l, l_alt) < f.chain.max_dupes);
        let Some(dented) = deficit else {
            return moves;
        };
        let donor = visited
            .iter()
            .filter(|&&(_, visit)| visit / 2 == deepest)
            .find_map(|&(bkt, _)| t.keys().slots_of(bkt, fp).next().map(|s| (bkt, s)));
        let Some((donor_bkt, donor_slot)) = donor else {
            return moves;
        };
        let (l, l_alt) = pairs[dented];
        let Some(target) = [l, l_alt].into_iter().find(|&bkt| t.len(bkt) < b) else {
            debug_assert!(false, "dented chain pair has no free slot");
            return moves;
        };
        let fp = f.table.stage(donor_bkt, donor_slot);
        f.table.swap_remove(donor_bkt, donor_slot);
        f.table.push_staged(target, fp);
        moves += 1;
    }
}

/// What a reference delete saw.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    removed: bool,
    /// The walk visited some pair twice.
    aliased: bool,
    repair_moves: usize,
}

/// The replaced delete, on `f`: `attrs` deletes that row, `None` any copy of the key.
fn reference_delete(f: &mut ChainedCcf, key: u64, attrs: Option<&[u64]>) -> Seen {
    if let Some(attrs) = attrs {
        f.codec.pack_row(&f.attr_fp, attrs, f.table.staged_mut());
    }
    let (fp, home, _) = f.table.pair_of(key);
    let mut walk = Vec::new();
    walk_pairs(f, fp, home, &mut walk);
    let num_pairs = walk.len();
    let ids: Vec<usize> = walk.iter().map(|&(l, l_alt)| l.min(l_alt)).collect();
    let aliased = (1..ids.len()).any(|j| ids[..j].contains(&ids[j]));
    append_visited_buckets(&mut walk);
    let (pairs, visited) = walk.split_at(num_pairs);
    let t = &f.table;
    let mut matched: Option<(usize, usize, usize)> = None;
    for &(bkt, visit) in visited {
        let fd = visit / 2;
        for slot in t.keys().slots_of(bkt, fp) {
            let hit = attrs.is_none() || t.payload(bkt, slot) == t.staged();
            if hit && matched.map_or(true, |(mfd, _, _)| fd >= mfd) {
                matched = Some((fd, bkt, slot));
            }
        }
    }
    let mut seen = Seen {
        aliased,
        ..Seen::default()
    };
    if let Some((_, mb, ms)) = matched {
        f.table.swap_remove(mb, ms);
        f.rows_absorbed = f.rows_absorbed.saturating_sub(1);
        seen.removed = true;
        seen.repair_moves = repair_chain(f, fp, pairs, visited);
    }
    seen
}

/// Totals over a stream.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    deletes: usize,
    aliased: usize,
    repairs: usize,
    aliased_repairs: usize,
}

/// Run a seeded insert/delete stream, checking every `delete_row` and `delete_key`
/// against the reference on a clone; with `grow`, the filter doubles twice midway.
fn run_stream(seed: u64, grow: bool) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let entries_per_bucket = rng.gen_range(2..=4usize);
    let params = CcfParams {
        num_buckets: 8 << rng.gen_range(0..4u32),
        entries_per_bucket,
        fingerprint_bits: rng.gen_range(4..=6u32),
        attr_bits: 8,
        num_attrs: 1,
        max_dupes: rng.gen_range(1..=3usize),
        // A cap keeps walks short: in an 8-bucket table every pair of κ can be
        // saturated, and an uncapped walk would run to the safety cap.
        max_chain: Some(rng.gen_range(2..=64usize)),
        max_kicks: 50,
        seed: rng.gen_range(0..u64::MAX),
        ..CcfParams::default()
    };
    let mut f = ChainedCcf::new(params);
    let keys = rng.gen_range(4..16u64);
    let mut rows: Vec<(u64, u64)> = Vec::new();
    let mut tally = Tally::default();
    for op in 0..240 {
        if grow && (op == 80 || op == 160) {
            f.grow();
        }
        let roll = rng.gen_range(0..100u32);
        if roll < 55 {
            let row = (rng.gen_range(0..keys), rng.gen_range(0..40u64));
            if f.insert_row(row.0, &[row.1]).is_ok() {
                rows.push(row);
            }
            continue;
        }
        let mut reference = f.clone();
        let (key, attrs) = if roll < 85 && !rows.is_empty() {
            let (key, attr) = rows.swap_remove(rng.gen_range(0..rows.len()));
            (key, Some([attr]))
        } else if roll < 90 {
            (rng.gen_range(0..keys), Some([rng.gen_range(0..40u64)]))
        } else {
            (rng.gen_range(0..keys), None)
        };
        let seen = reference_delete(&mut reference, key, attrs.as_ref().map(|a| &a[..]));
        let got = match attrs {
            Some(a) => f.delete_row(key, &a),
            None => f.delete_key(key),
        };
        assert_eq!(got, Ok(seen.removed), "seed {seed} op {op}: answer");
        assert_eq!(
            f.bucket_snapshot(),
            reference.bucket_snapshot(),
            "seed {seed} op {op}: slots after deleting {key} {attrs:?}"
        );
        assert_eq!(f.rows_absorbed(), reference.rows_absorbed());
        tally.deletes += 1;
        tally.aliased += usize::from(seen.aliased);
        tally.repairs += usize::from(seen.repair_moves > 0);
        tally.aliased_repairs += usize::from(seen.aliased && seen.repair_moves > 0);
        assert!(
            seen.repair_moves <= 1,
            "seed {seed} op {op}: the reference moved twice"
        );
    }
    tally
}

proptest! {
    /// Every delete of a seeded stream, with and without growth, leaves the same
    /// answer and the same slots as the replaced algorithm.
    #[test]
    fn one_pass_delete_matches_the_replaced_algorithm(seed in any::<u64>()) {
        run_stream(seed, false);
        run_stream(seed, true);
    }
}

#[test]
fn streams_produce_aliased_walks_and_repairs() {
    let mut total = Tally::default();
    for seed in 0..32 {
        for grow in [false, true] {
            let t = run_stream(seed, grow);
            total.deletes += t.deletes;
            total.aliased += t.aliased;
            total.repairs += t.repairs;
            total.aliased_repairs += t.aliased_repairs;
        }
    }
    assert!(total.deletes > 3000, "{total:?}");
    assert!(
        total.aliased * 10 > total.deletes,
        "too few aliased walks: {total:?}"
    );
    assert!(total.repairs > 500, "too few repair moves: {total:?}");
    assert!(
        total.aliased_repairs > 100,
        "too few repairs on aliased walks: {total:?}"
    );
}
