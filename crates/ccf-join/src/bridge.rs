//! Bridging JOB-light query predicates to raw-row evaluation and CCF predicates.
//!
//! A query predicate on a table is used in two ways:
//!
//! * evaluated *exactly* on the table's raw rows (to compute `M_predicate`, the exact
//!   semijoin baselines, and ground truth for FPR accounting);
//! * translated into a [`ccf_core::Predicate`] over the table's CCF attribute columns,
//!   with `production_year` ranges converted to bin in-lists per §9.1/§10.3 (the CCF
//!   stores the binned year, except that a scan *on* `title` itself evaluates the year
//!   predicate directly and needs no binning).

use ccf_core::predicate::binning::Binning;
use ccf_core::{ColumnPredicate, Predicate};
use ccf_workloads::imdb::{spec_of, SyntheticTable, TableId};
use ccf_workloads::joblight::{QueryPredicate, QueryTable};

/// Why a query predicate could not be bridged to a table's columns. The serving
/// paths (`try_*` functions, used by the sharded service layer) report these as
/// values; the experiment harness keeps the infallible wrappers, whose only failure
/// mode is a workload-generator bug surfaced as an `unreachable!` with this message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeError {
    /// A predicate referenced a column the table does not have.
    ColumnOutOfRange {
        /// The table being scanned.
        table: TableId,
        /// The referenced column index.
        column: usize,
        /// How many predicate columns the table actually has.
        num_columns: usize,
    },
    /// A predicate was paired with a row index past the end of the table.
    RowOutOfRange {
        /// The table being scanned.
        table: TableId,
        /// The referenced row.
        row: usize,
        /// Number of rows in the table.
        num_rows: usize,
    },
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::ColumnOutOfRange {
                table,
                column,
                num_columns,
            } => write!(
                f,
                "predicate references column {column} of {table:?}, which has only \
                 {num_columns} predicate columns"
            ),
            BridgeError::RowOutOfRange {
                table,
                row,
                num_rows,
            } => write!(f, "row {row} out of range for {table:?} ({num_rows} rows)"),
        }
    }
}

impl std::error::Error for BridgeError {}

/// Fold into the workspace-level error, so service paths composing construction,
/// insertion and predicate bridging can bubble one error type
/// (`Result<_, CcfError>`) with `?`.
impl From<BridgeError> for ccf_core::CcfError {
    fn from(e: BridgeError) -> Self {
        ccf_core::CcfError::Bridge(e.to_string())
    }
}

/// Validate that a predicate's column exists on the table.
fn check_column(table: &SyntheticTable, column: usize) -> Result<(), BridgeError> {
    if column >= table.columns.len() {
        return Err(BridgeError::ColumnOutOfRange {
            table: table.id,
            column,
            num_columns: table.columns.len(),
        });
    }
    Ok(())
}

/// Validate that a row index exists on the table.
fn check_row(table: &SyntheticTable, row: usize) -> Result<(), BridgeError> {
    if row >= table.num_rows() {
        return Err(BridgeError::RowOutOfRange {
            table: table.id,
            row,
            num_rows: table.num_rows(),
        });
    }
    Ok(())
}

/// The binning used for `title.production_year` (16 bins over 1880–2019, §10.3).
pub fn production_year_binning() -> Binning {
    Binning::production_year()
}

/// Index of the `production_year` column within `title`'s predicate columns.
pub const PRODUCTION_YEAR_COLUMN: usize = 1;

/// Whether a table column stores binned values inside the CCF.
pub fn column_is_binned(table: TableId, column: usize) -> bool {
    table == TableId::Title && column == PRODUCTION_YEAR_COLUMN
}

/// The attribute vector a CCF stores for one row of a table: the raw predicate-column
/// values, with `production_year` replaced by its bin id.
pub fn ccf_attrs_for_row(table: &SyntheticTable, row: usize) -> Vec<u64> {
    let mut attrs = Vec::with_capacity(table.columns.len());
    ccf_attrs_into(table, row, &production_year_binning(), &mut attrs);
    attrs
}

/// [`ccf_attrs_for_row`] appended to `out`, with the `production_year` binning
/// passed in, so a loop over a table's rows reuses one buffer and one binning.
pub fn ccf_attrs_into(table: &SyntheticTable, row: usize, binning: &Binning, out: &mut Vec<u64>) {
    out.extend(table.columns.iter().enumerate().map(|(ci, col)| {
        if column_is_binned(table.id, ci) {
            binning.bin_of(col[row])
        } else {
            col[row]
        }
    }));
}

/// Evaluate a single query predicate against one raw row of a table, reporting
/// out-of-range columns/rows as a typed error instead of an index panic.
pub fn try_row_matches_predicate(
    table: &SyntheticTable,
    row: usize,
    pred: &QueryPredicate,
) -> Result<bool, BridgeError> {
    check_row(table, row)?;
    match pred {
        QueryPredicate::Eq { column, value } => {
            check_column(table, *column)?;
            Ok(table.columns[*column][row] == *value)
        }
        QueryPredicate::Range { column, lo, hi } => {
            check_column(table, *column)?;
            let v = table.columns[*column][row];
            Ok(v >= *lo && v <= *hi)
        }
    }
}

/// Evaluate a single query predicate against one raw row of a table.
pub fn row_matches_predicate(table: &SyntheticTable, row: usize, pred: &QueryPredicate) -> bool {
    try_row_matches_predicate(table, row, pred)
        .unwrap_or_else(|e| unreachable!("generated JOB-light predicates are in-spec: {e}"))
}

/// Evaluate all of a query-table's predicates against one raw row (conjunction),
/// with malformed predicates reported as a typed error.
pub fn try_row_matches_table_predicates(
    table: &SyntheticTable,
    row: usize,
    qt: &QueryTable,
) -> Result<bool, BridgeError> {
    debug_assert_eq!(table.id, qt.table);
    // Check the row up front so a nonexistent row is reported even when the
    // predicate list is empty (an empty conjunction is trivially true, but only for
    // rows that exist).
    check_row(table, row)?;
    for p in &qt.predicates {
        if !try_row_matches_predicate(table, row, p)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluate all of a query-table's predicates against one raw row (conjunction).
pub fn row_matches_table_predicates(table: &SyntheticTable, row: usize, qt: &QueryTable) -> bool {
    try_row_matches_table_predicates(table, row, qt)
        .unwrap_or_else(|e| unreachable!("generated JOB-light predicates are in-spec: {e}"))
}

/// Evaluate a query-table's predicates against one raw row *after binning* range
/// predicates: a row matches if its value falls in a bin that overlaps the range. This
/// is the "Exact Semijoin After Binning" baseline of Figure 7 / §10.6 — the error
/// introduced by binning, with no sketching error on top.
pub fn row_matches_table_predicates_binned(
    table: &SyntheticTable,
    row: usize,
    qt: &QueryTable,
) -> bool {
    try_row_matches_table_predicates_binned(table, row, qt)
        .unwrap_or_else(|e| unreachable!("generated JOB-light predicates are in-spec: {e}"))
}

/// As [`row_matches_table_predicates_binned`], with malformed predicates reported as a
/// typed error.
pub fn try_row_matches_table_predicates_binned(
    table: &SyntheticTable,
    row: usize,
    qt: &QueryTable,
) -> Result<bool, BridgeError> {
    debug_assert_eq!(table.id, qt.table);
    check_row(table, row)?;
    let binning = production_year_binning();
    for p in &qt.predicates {
        let matched = match p {
            QueryPredicate::Eq { .. } => try_row_matches_predicate(table, row, p)?,
            QueryPredicate::Range { column, lo, hi } => {
                if column_is_binned(table.id, *column) {
                    check_column(table, *column)?;
                    let bin = binning.bin_of(table.columns[*column][row]);
                    match binning.range_to_bins(*lo, *hi) {
                        ColumnPredicate::Any => true,
                        cond => cond.matches_value(bin),
                    }
                } else {
                    try_row_matches_predicate(table, row, p)?
                }
            }
        };
        if !matched {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Translate a query-table's predicates into a [`Predicate`] over the table's CCF
/// attribute columns (equality stays equality; ranges on binned columns become bin
/// in-lists; unconstrained columns stay unconstrained).
pub fn ccf_predicate_for(qt: &QueryTable) -> Predicate {
    try_ccf_predicate_for(qt)
        .unwrap_or_else(|e| unreachable!("generated JOB-light predicates are in-spec: {e}"))
}

/// As [`ccf_predicate_for`], reporting predicates on nonexistent columns as a typed
/// error instead of an index panic — the form the sharded serving path uses, so a
/// malformed client predicate cannot abort the process.
pub fn try_ccf_predicate_for(qt: &QueryTable) -> Result<Predicate, BridgeError> {
    let spec = spec_of(qt.table);
    let binning = production_year_binning();
    let mut conditions = vec![ColumnPredicate::Any; spec.columns.len()];
    let check = |column: usize| -> Result<(), BridgeError> {
        if column >= spec.columns.len() {
            return Err(BridgeError::ColumnOutOfRange {
                table: qt.table,
                column,
                num_columns: spec.columns.len(),
            });
        }
        Ok(())
    };
    for p in &qt.predicates {
        match p {
            QueryPredicate::Eq { column, value } => {
                check(*column)?;
                let literal = if column_is_binned(qt.table, *column) {
                    binning.bin_of(*value)
                } else {
                    *value
                };
                conditions[*column] = ColumnPredicate::Eq(literal);
            }
            QueryPredicate::Range { column, lo, hi } => {
                check(*column)?;
                conditions[*column] = if column_is_binned(qt.table, *column) {
                    binning.range_to_bins(*lo, *hi)
                } else {
                    // Ranges on non-binned columns do not occur in JOB-light, but are
                    // handled by enumerating the (small) value range.
                    ColumnPredicate::InList((*lo..=*hi).collect())
                };
            }
        }
    }
    Ok(Predicate::new(conditions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_workloads::imdb::SyntheticImdb;
    use ccf_workloads::joblight::JobLightWorkload;

    fn db() -> SyntheticImdb {
        SyntheticImdb::generate(512, 11)
    }

    #[test]
    fn ccf_attrs_bin_the_production_year() {
        let db = db();
        let title = db.table(TableId::Title);
        let binning = production_year_binning();
        for row in 0..50 {
            let attrs = ccf_attrs_for_row(title, row);
            assert_eq!(attrs.len(), 2);
            assert_eq!(attrs[0], title.columns[0][row]);
            assert_eq!(attrs[1], binning.bin_of(title.columns[1][row]));
            assert!(attrs[1] < 16);
        }
        // Non-title tables keep raw values.
        let ci = db.table(TableId::CastInfo);
        for row in 0..50 {
            assert_eq!(ccf_attrs_for_row(ci, row), vec![ci.columns[0][row]]);
        }
    }

    #[test]
    fn raw_predicate_evaluation() {
        let db = db();
        let title = db.table(TableId::Title);
        let qt = QueryTable {
            table: TableId::Title,
            predicates: vec![
                QueryPredicate::Eq {
                    column: 0,
                    value: title.columns[0][0],
                },
                QueryPredicate::Range {
                    column: 1,
                    lo: title.columns[1][0],
                    hi: title.columns[1][0],
                },
            ],
        };
        assert!(row_matches_table_predicates(title, 0, &qt));
        // A row with a different year must fail the range.
        let other = (0..title.num_rows())
            .find(|&r| title.columns[1][r] != title.columns[1][0])
            .unwrap();
        let matches = row_matches_table_predicates(title, other, &qt);
        assert!(!matches || title.columns[0][other] == title.columns[0][0]);
    }

    #[test]
    fn binned_evaluation_is_a_superset_of_exact() {
        // Binning can only add rows (bins overlap the range boundary), never drop rows
        // that match exactly.
        let db = db();
        let title = db.table(TableId::Title);
        let qt = QueryTable {
            table: TableId::Title,
            predicates: vec![QueryPredicate::Range {
                column: 1,
                lo: 1950,
                hi: 1983,
            }],
        };
        for row in 0..title.num_rows() {
            if row_matches_table_predicates(title, row, &qt) {
                assert!(
                    row_matches_table_predicates_binned(title, row, &qt),
                    "binned evaluation dropped an exactly-matching row"
                );
            }
        }
        let exact = (0..title.num_rows())
            .filter(|&r| row_matches_table_predicates(title, r, &qt))
            .count();
        let binned = (0..title.num_rows())
            .filter(|&r| row_matches_table_predicates_binned(title, r, &qt))
            .count();
        assert!(binned >= exact);
    }

    #[test]
    fn ccf_predicate_translation_covers_all_shapes() {
        let qt = QueryTable {
            table: TableId::Title,
            predicates: vec![
                QueryPredicate::Eq {
                    column: 0,
                    value: 3,
                },
                QueryPredicate::Range {
                    column: 1,
                    lo: 1990,
                    hi: 2005,
                },
            ],
        };
        let pred = ccf_predicate_for(&qt);
        assert_eq!(pred.num_attrs(), 2);
        assert_eq!(pred.conditions()[0], ColumnPredicate::Eq(3));
        match &pred.conditions()[1] {
            ColumnPredicate::InList(bins) => {
                let binning = production_year_binning();
                for year in 1990..=2005u64 {
                    assert!(bins.contains(&binning.bin_of(year)));
                }
            }
            other => panic!("expected bin in-list, got {other:?}"),
        }
        // A table occurrence without predicates translates to an unconstrained
        // predicate (key-only behaviour).
        let bare = QueryTable {
            table: TableId::CastInfo,
            predicates: vec![],
        };
        assert!(ccf_predicate_for(&bare).is_unconstrained());
    }

    #[test]
    fn malformed_predicates_become_typed_errors_not_panics() {
        let db = db();
        let title = db.table(TableId::Title);
        // title has 2 predicate columns; column 9 is malformed client input.
        let bad_eq = QueryPredicate::Eq {
            column: 9,
            value: 1,
        };
        let err = try_row_matches_predicate(title, 0, &bad_eq).unwrap_err();
        assert_eq!(
            err,
            BridgeError::ColumnOutOfRange {
                table: TableId::Title,
                column: 9,
                num_columns: 2
            }
        );
        assert!(err.to_string().contains("column 9"));

        let bad_qt = QueryTable {
            table: TableId::Title,
            predicates: vec![QueryPredicate::Range {
                column: 7,
                lo: 0,
                hi: 10,
            }],
        };
        assert!(try_ccf_predicate_for(&bad_qt).is_err());
        assert!(try_row_matches_table_predicates(title, 0, &bad_qt).is_err());
        assert!(try_row_matches_table_predicates_binned(title, 0, &bad_qt).is_err());

        // Row past the end of the table is also a value, not a panic.
        let ok_qt = QueryTable {
            table: TableId::Title,
            predicates: vec![QueryPredicate::Eq {
                column: 0,
                value: 1,
            }],
        };
        let err = try_row_matches_table_predicates(title, usize::MAX, &ok_qt).unwrap_err();
        assert!(matches!(err, BridgeError::RowOutOfRange { .. }));
        // ... even with an empty predicate list, which is trivially true only for
        // rows that exist.
        let empty_qt = QueryTable {
            table: TableId::Title,
            predicates: vec![],
        };
        assert!(matches!(
            try_row_matches_table_predicates(title, usize::MAX, &empty_qt),
            Err(BridgeError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            try_row_matches_table_predicates_binned(title, usize::MAX, &empty_qt),
            Err(BridgeError::RowOutOfRange { .. })
        ));
        assert_eq!(
            try_row_matches_table_predicates(title, 0, &empty_qt),
            Ok(true)
        );

        // Well-formed predicates agree with the infallible wrappers.
        for row in 0..20 {
            assert_eq!(
                try_row_matches_table_predicates(title, row, &ok_qt).unwrap(),
                row_matches_table_predicates(title, row, &ok_qt)
            );
        }
    }

    #[test]
    fn bridge_errors_fold_into_the_workspace_error() {
        use ccf_core::CcfError;
        fn serve() -> Result<Predicate, CcfError> {
            let bad = QueryTable {
                table: TableId::Title,
                predicates: vec![QueryPredicate::Eq {
                    column: 9,
                    value: 1,
                }],
            };
            Ok(try_ccf_predicate_for(&bad)?)
        }
        match serve() {
            Err(CcfError::Bridge(msg)) => assert!(msg.contains("column 9")),
            other => panic!("expected a bridge error, got {other:?}"),
        }
    }

    #[test]
    fn workload_predicates_translate_without_panicking() {
        let db = db();
        let wl = JobLightWorkload::generate(&db, 1);
        for q in &wl.queries {
            for qt in &q.tables {
                let pred = ccf_predicate_for(qt);
                assert_eq!(pred.num_attrs(), spec_of(qt.table).columns.len());
            }
        }
    }
}
