//! Insertion/deletion outcomes and failures shared by all CCF variants.

/// What happened when a row was (successfully) absorbed by a CCF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new entry was created for the row.
    Inserted,
    /// The exact (key fingerprint, attribute sketch) pair was already present — nothing
    /// was stored. The multiset experiments (§10.1) count only *unique* (key,
    /// attribute) pairs, so callers can distinguish this case.
    Deduplicated,
    /// The row was merged into an existing entry's Bloom attribute sketch (Bloom and
    /// mixed variants).
    Merged,
    /// The row triggered a Bloom conversion (§6.1): the bucket pair's `d` fingerprint
    /// vectors plus this row were repacked into a Bloom attribute sketch.
    Converted,
    /// The chained variant exhausted its maximum chain length `Lmax` and discarded the
    /// row (§6.2). This is *not* an error: Theorem 3's no-false-negative guarantee
    /// still holds, because queries that walk a saturated chain to its end return true.
    DroppedChainCap,
}

impl InsertOutcome {
    /// Whether the row consumed a new entry slot.
    pub fn consumed_entry(&self) -> bool {
        matches!(self, InsertOutcome::Inserted)
    }
}

/// Why an insertion failed. A failed insertion leaves the filter unchanged (the kick
/// chain is rolled back), so earlier insertions keep their no-false-negative guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertFailure {
    /// The kick loop ran for the maximum number of rounds without freeing a slot. This
    /// is the "failed insertion" event measured in Figure 4; a production deployment
    /// would resize the filter and re-insert.
    KicksExhausted {
        /// Load factor at the time of failure.
        load_factor_millis: u32,
    },
    /// The row's attribute vector does not have the filter's `num_attrs` columns. The
    /// filter is left unchanged; a hot serving path reports this as a value instead of
    /// aborting the process. Use [`crate::Predicate::for_params`] on the query side to
    /// keep arities aligned by construction.
    AttrArityMismatch {
        /// The filter's configured number of attribute columns.
        expected: usize,
        /// The row's number of attributes.
        got: usize,
    },
}

impl InsertFailure {
    /// [`InsertFailure::KicksExhausted`] at the given load factor, rounded (not
    /// floored) to thousandths. Every variant constructs its kick failure through
    /// here, so the reported granularity cannot drift between variants.
    pub fn kicks_exhausted_at(load_factor: f64) -> Self {
        Self::KicksExhausted {
            load_factor_millis: (load_factor * 1000.0).round() as u32,
        }
    }
}

impl std::fmt::Display for InsertFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertFailure::KicksExhausted { load_factor_millis } => write!(
                f,
                "insertion failed after exhausting cuckoo kicks at load factor {:.3}",
                *load_factor_millis as f64 / 1000.0
            ),
            InsertFailure::AttrArityMismatch { expected, got } => {
                write!(f, "row has {got} attributes, filter expects {expected}")
            }
        }
    }
}

impl std::error::Error for InsertFailure {}

/// Why a deletion was refused. A refused deletion leaves the filter unchanged.
///
/// A deletion that simply finds no matching entry is *not* a failure — the point
/// deletes return `Ok(false)` for that case — so every variant of this enum marks a
/// structural reason the variant cannot honor the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteFailure {
    /// The filter variant cannot delete at all. The Bloom variant merges every row of
    /// a key into one per-entry Bloom sketch; bits cannot be unmerged, so removing a
    /// row (or key) would silently break other rows' no-false-negative guarantee.
    Unsupported,
    /// The key's rows were converted into a Bloom group (§6.1, mixed variant). The
    /// group's sketch covers every row of the key collectively, so individual rows can
    /// no longer be separated out. Callers that need hot keys deletable should use the
    /// chained variant (or rebuild the filter without the key).
    ConvertedGroup,
    /// The row's attribute vector does not have the filter's `num_attrs` columns, so
    /// no stored entry could possibly match it. Reported as a typed error (rather than
    /// `Ok(false)`) because it is a caller bug worth surfacing.
    AttrArityMismatch {
        /// The filter's configured number of attribute columns.
        expected: usize,
        /// The row's number of attributes.
        got: usize,
    },
}

impl std::fmt::Display for DeleteFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeleteFailure::Unsupported => {
                write!(
                    f,
                    "this filter variant merges rows into Bloom sketches and cannot delete"
                )
            }
            DeleteFailure::ConvertedGroup => {
                write!(
                    f,
                    "the key's rows were converted into a Bloom group and can no longer be \
                     deleted individually"
                )
            }
            DeleteFailure::AttrArityMismatch { expected, got } => {
                write!(f, "row has {got} attributes, filter expects {expected}")
            }
        }
    }
}

impl std::error::Error for DeleteFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumed_entry_only_for_inserted() {
        assert!(InsertOutcome::Inserted.consumed_entry());
        assert!(!InsertOutcome::Deduplicated.consumed_entry());
        assert!(!InsertOutcome::Merged.consumed_entry());
        assert!(!InsertOutcome::Converted.consumed_entry());
        assert!(!InsertOutcome::DroppedChainCap.consumed_entry());
    }

    #[test]
    fn kicks_exhausted_rounds_load_factor_at_the_half_milli_boundary() {
        // 1/16 = 62.5 thousandths, exactly representable in binary: rounding reports
        // 63 where a flooring cast would report 62.
        assert_eq!(
            InsertFailure::kicks_exhausted_at(1.0 / 16.0),
            InsertFailure::KicksExhausted {
                load_factor_millis: 63
            }
        );
        assert_eq!(
            InsertFailure::kicks_exhausted_at(0.9994),
            InsertFailure::KicksExhausted {
                load_factor_millis: 999
            }
        );
    }

    #[test]
    fn failures_format_readably() {
        let msg = InsertFailure::KicksExhausted {
            load_factor_millis: 873,
        }
        .to_string();
        assert!(msg.contains("0.873"));
        let msg = InsertFailure::AttrArityMismatch {
            expected: 2,
            got: 1,
        }
        .to_string();
        assert!(msg.contains("1 attributes") && msg.contains("expects 2"));
    }

    #[test]
    fn delete_failures_format_readably() {
        assert!(DeleteFailure::Unsupported
            .to_string()
            .contains("cannot delete"));
        assert!(DeleteFailure::ConvertedGroup
            .to_string()
            .contains("Bloom group"));
        let msg = DeleteFailure::AttrArityMismatch {
            expected: 3,
            got: 2,
        }
        .to_string();
        assert!(msg.contains("2 attributes") && msg.contains("expects 3"));
    }

    #[test]
    fn kicks_exhausted_rounds_to_the_nearest_milli_off_the_boundary() {
        // Below and above the .5 boundary, and the ends of the range.
        for (load_factor, millis) in [(0.062, 62), (0.0626, 63), (0.0, 0), (1.0, 1000)] {
            assert_eq!(
                InsertFailure::kicks_exhausted_at(load_factor),
                InsertFailure::KicksExhausted {
                    load_factor_millis: millis
                },
                "load factor {load_factor}"
            );
        }
        // The message shows the rounded figure.
        assert!(InsertFailure::kicks_exhausted_at(1.0 / 16.0)
            .to_string()
            .contains("0.063"));
    }
}
