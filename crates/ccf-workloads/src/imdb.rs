//! A synthetic IMDB dataset matching the statistics the paper's JOB-light experiments
//! depend on (Tables 2 and 3).
//!
//! The paper evaluates on a pre-2017 IMDB snapshot (the Join Order Benchmark data).
//! That dataset is not redistributable here and is far larger than a laptop-scale
//! reproduction needs, so this module generates tables whose *relevant statistics*
//! match the paper's: the six tables with their predicate columns, the per-column
//! cardinalities of Table 2, and the per-join-key duplicate structure of Table 3
//! (average and maximum number of distinct duplicate predicate values per `movie_id`,
//! with Zipf-skewed duplication so the heavy tails — `movie_keyword.keyword_id` going
//! up to hundreds of distinct values for one movie — are exercised). Row counts scale
//! with a configurable `scale` denominator so the full experiment sweep runs in
//! seconds; the *ratios* between tables match Table 2.
//!
//! Reduction factors, filter sizes relative to raw data, and FPR behaviour — the
//! quantities Figures 6–10 report — are driven by exactly these statistics (join-key
//! overlap, predicate selectivity, duplicate skew), which is why the substitution
//! preserves the shape of the paper's results.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::ZipfMandelbrot;

/// Identifier for the six JOB-light tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TableId {
    /// `cast_info` — cast membership rows.
    CastInfo,
    /// `movie_companies` — production/distribution company rows.
    MovieCompanies,
    /// `movie_info` — assorted per-movie facts.
    MovieInfo,
    /// `movie_info_idx` — indexed per-movie facts.
    MovieInfoIdx,
    /// `movie_keyword` — keyword tags.
    MovieKeyword,
    /// `title` — one row per movie (the join key's home table).
    Title,
}

impl TableId {
    /// All six tables, in the order of Table 2.
    pub const ALL: [TableId; 6] = [
        TableId::CastInfo,
        TableId::MovieCompanies,
        TableId::MovieInfo,
        TableId::MovieInfoIdx,
        TableId::MovieKeyword,
        TableId::Title,
    ];

    /// The table's name as it appears in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            TableId::CastInfo => "cast_info",
            TableId::MovieCompanies => "movie_companies",
            TableId::MovieInfo => "movie_info",
            TableId::MovieInfoIdx => "movie_info_idx",
            TableId::MovieKeyword => "movie_keyword",
            TableId::Title => "title",
        }
    }
}

/// Static description of one predicate column (one row of Tables 2–3).
#[derive(Debug, Clone, Copy)]
pub struct ColumnSpec {
    /// Column name as in the paper.
    pub name: &'static str,
    /// Number of distinct values in the real data (Table 2, "Column Cardinality").
    pub cardinality: u64,
    /// Average number of distinct values per join key (Table 3, "Avg Dupes").
    pub avg_dupes: f64,
    /// Maximum number of distinct values per join key (Table 3, "Max Dupes").
    pub max_dupes: u64,
    /// Whether values are drawn from a skewed (Zipf) distribution over the domain.
    pub skewed: bool,
}

/// Static description of one table (row counts from Table 2 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct TableSpec {
    /// Which table this is.
    pub id: TableId,
    /// Row count in the real snapshot (Table 2, "Number of Rows").
    pub full_rows: u64,
    /// Fraction of all movies that appear in this table at least once.
    pub movie_coverage: f64,
    /// Predicate columns.
    pub columns: &'static [ColumnSpec],
}

/// Number of rows in the real `title` table — the size of the movie-id universe.
pub const FULL_NUM_MOVIES: u64 = 2_528_312;

/// The Table 2 / Table 3 specification of the six tables.
pub const TABLE_SPECS: [TableSpec; 6] = [
    TableSpec {
        id: TableId::CastInfo,
        full_rows: 36_244_344,
        movie_coverage: 0.75,
        columns: &[ColumnSpec {
            name: "role_id",
            cardinality: 11,
            avg_dupes: 4.70,
            max_dupes: 11,
            skewed: true,
        }],
    },
    TableSpec {
        id: TableId::MovieCompanies,
        full_rows: 2_609_129,
        movie_coverage: 0.45,
        columns: &[
            ColumnSpec {
                name: "company_id",
                cardinality: 234_997,
                avg_dupes: 2.14,
                max_dupes: 87,
                skewed: true,
            },
            ColumnSpec {
                name: "company_type_id",
                cardinality: 2,
                avg_dupes: 1.54,
                max_dupes: 2,
                skewed: false,
            },
        ],
    },
    TableSpec {
        id: TableId::MovieInfo,
        full_rows: 14_835_720,
        movie_coverage: 0.80,
        columns: &[ColumnSpec {
            name: "info_type_id",
            cardinality: 71,
            avg_dupes: 4.17,
            max_dupes: 68,
            skewed: true,
        }],
    },
    TableSpec {
        id: TableId::MovieInfoIdx,
        full_rows: 1_380_035,
        movie_coverage: 0.30,
        columns: &[ColumnSpec {
            name: "info_type_id",
            cardinality: 5,
            avg_dupes: 3.00,
            max_dupes: 4,
            skewed: false,
        }],
    },
    TableSpec {
        id: TableId::MovieKeyword,
        full_rows: 4_523_930,
        movie_coverage: 0.35,
        columns: &[ColumnSpec {
            name: "keyword_id",
            cardinality: 134_170,
            avg_dupes: 9.48,
            max_dupes: 539,
            skewed: true,
        }],
    },
    TableSpec {
        id: TableId::Title,
        full_rows: 2_528_312,
        movie_coverage: 1.0,
        columns: &[
            ColumnSpec {
                name: "kind_id",
                cardinality: 6,
                avg_dupes: 1.00,
                max_dupes: 1,
                skewed: true,
            },
            ColumnSpec {
                name: "production_year",
                cardinality: 132,
                avg_dupes: 1.00,
                max_dupes: 1,
                skewed: true,
            },
        ],
    },
];

/// Range of `production_year` in the data (§10.3: "an integer ranging from 1880 to
/// 2019").
pub const PRODUCTION_YEAR_RANGE: (u64, u64) = (1880, 2019);

/// A generated table: column-oriented rows of (join key, predicate column values).
#[derive(Debug, Clone)]
pub struct SyntheticTable {
    /// Which table this is.
    pub id: TableId,
    /// `movie_id` per row.
    pub join_keys: Vec<u64>,
    /// One value vector per predicate column, aligned with [`TableSpec::columns`].
    pub columns: Vec<Vec<u64>>,
}

impl SyntheticTable {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.join_keys.len()
    }

    /// The static spec for this table.
    pub fn spec(&self) -> &'static TableSpec {
        spec_of(self.id)
    }

    /// The attribute vector of a row (one value per predicate column).
    pub fn row_attrs(&self, row: usize) -> Vec<u64> {
        self.columns.iter().map(|c| c[row]).collect()
    }

    /// Number of distinct join keys.
    pub fn distinct_keys(&self) -> usize {
        let mut keys: Vec<u64> = self.join_keys.clone();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Per-key counts of distinct attribute vectors (the `A` statistic of §8 / the
    /// "dupes" of Table 3 when the table has a single predicate column), one count
    /// per distinct key, in key order.
    ///
    /// Rows are sorted by (join key, attribute vector) and deduplicated in one
    /// buffer, so each key's distinct vectors form one run; no row allocates. A row
    /// is sorted as (key, first column, index), so most comparisons settle without
    /// reading the other columns.
    pub fn distinct_attr_vectors_per_key(&self) -> Vec<usize> {
        let (first, rest) = match self.columns.split_first() {
            Some((first, rest)) => (Some(first), rest),
            None => (None, &[][..]),
        };
        let rest_cmp = |a: usize, b: usize| {
            rest.iter()
                .map(|c| c[a].cmp(&c[b]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        let mut rows: Vec<(u64, u64, usize)> = (0..self.num_rows())
            .map(|row| (self.join_keys[row], first.map_or(0, |c| c[row]), row))
            .collect();
        rows.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then_with(|| rest_cmp(a.2, b.2)));
        rows.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1) && rest_cmp(a.2, b.2).is_eq());
        let mut counts = Vec::new();
        let mut start = 0;
        for i in 1..=rows.len() {
            if i == rows.len() || rows[i].0 != rows[start].0 {
                counts.push(i - start);
                start = i;
            }
        }
        counts
    }

    /// Raw size of the data summarized by a CCF over this table, in bits, using the
    /// §10.7 accounting: join keys and high-cardinality attributes (cardinality > 256)
    /// take 32 bits, low-cardinality attributes take 8 bits.
    pub fn raw_size_bits(&self) -> usize {
        let spec = self.spec();
        let per_row: usize = 32
            + spec
                .columns
                .iter()
                .map(|c| if c.cardinality > 256 { 32 } else { 8 })
                .sum::<usize>();
        self.num_rows() * per_row
    }
}

/// The full synthetic dataset.
#[derive(Debug, Clone)]
pub struct SyntheticImdb {
    /// Scale denominator used for generation.
    pub scale: u64,
    /// Number of movies (the join-key universe is `1..=num_movies`).
    pub num_movies: u64,
    /// The six tables, in [`TableId::ALL`] order.
    pub tables: Vec<SyntheticTable>,
}

/// Look up the static spec of a table.
pub fn spec_of(id: TableId) -> &'static TableSpec {
    TABLE_SPECS
        .iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("no spec for table {id:?}"))
}

impl SyntheticImdb {
    /// Generate the dataset at `1/scale` of the real row counts.
    ///
    /// `scale = 64` (the experiment default) yields ≈ 40 k movies and ≈ 950 k total
    /// rows; `scale = 512` is comfortable for unit tests.
    pub fn generate(scale: u64, seed: u64) -> Self {
        assert!(scale >= 1, "scale must be at least 1");
        let num_movies = (FULL_NUM_MOVIES / scale).max(1000);
        let mut tables = Vec::with_capacity(6);
        for (i, spec) in TABLE_SPECS.iter().enumerate() {
            tables.push(Self::generate_table(
                spec,
                num_movies,
                seed ^ ((i as u64 + 1) << 32),
            ));
        }
        Self {
            scale,
            num_movies,
            tables,
        }
    }

    /// The generated table for `id`.
    pub fn table(&self, id: TableId) -> &SyntheticTable {
        self.tables
            .iter()
            .find(|t| t.id == id)
            .unwrap_or_else(|| panic!("table {id:?} was not generated"))
    }

    fn generate_table(spec: &'static TableSpec, num_movies: u64, seed: u64) -> SyntheticTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut join_keys = Vec::new();
        let mut columns: Vec<Vec<u64>> = vec![Vec::new(); spec.columns.len()];

        if spec.id == TableId::Title {
            // Exactly one row per movie: kind_id skewed over 6 kinds, production_year
            // skewed towards recent years.
            let kind_dist = ZipfMandelbrot::new(1.2, 1.0, 6);
            for movie in 1..=num_movies {
                join_keys.push(movie);
                columns[0].push(kind_dist.sample(&mut rng));
                // Year: triangular-ish skew toward the recent end of 1880..=2019.
                let (lo, hi) = PRODUCTION_YEAR_RANGE;
                let span = hi - lo;
                let u: f64 = rng.gen::<f64>().max(rng.gen::<f64>());
                columns[1].push(lo + (u * span as f64) as u64);
            }
            return SyntheticTable {
                id: spec.id,
                join_keys,
                columns,
            };
        }

        // Duplicate structure: distinct values per key ~ Zipf-Mandelbrot with the
        // Table 3 mean, truncated at the Table 3 maximum.
        let lead = spec.columns[0];
        let dupes_dist = if lead.max_dupes <= 1 {
            None
        } else {
            let alpha = ZipfMandelbrot::solve_alpha_for_mean_with(
                lead.avg_dupes.max(1.0),
                ZipfMandelbrot::PAPER_OFFSET,
                lead.max_dupes,
            );
            Some(ZipfMandelbrot::new(
                alpha,
                ZipfMandelbrot::PAPER_OFFSET,
                lead.max_dupes,
            ))
        };

        // Value distributions per column: skewed columns draw from a Zipf over the
        // cardinality, uniform ones uniformly.
        let value_dists: Vec<Option<ZipfMandelbrot>> = spec
            .columns
            .iter()
            .map(|c| {
                if c.skewed && c.cardinality > 1 {
                    Some(ZipfMandelbrot::new(1.05, 2.7, c.cardinality))
                } else {
                    None
                }
            })
            .collect();

        // Row budget: keep the per-table ratios of Table 2. Rows per included movie is
        // derived from the duplicate structure; extra repetitions model the fact that
        // the same (movie, value) pair occurs in multiple raw rows.
        let target_rows =
            (spec.full_rows as f64 * num_movies as f64 / FULL_NUM_MOVIES as f64) as usize;

        for movie in 1..=num_movies {
            if !rng.gen_bool(spec.movie_coverage) {
                continue;
            }
            let distinct = dupes_dist
                .as_ref()
                .map(|d| d.sample(&mut rng))
                .unwrap_or(1)
                .max(1);
            for dup in 0..distinct {
                // Lead column: `distinct` different values for this movie.
                let lead_value = match &value_dists[0] {
                    Some(dist) => {
                        // Re-draw until distinct from previous picks is overkill for a
                        // synthetic workload; offsetting by the duplicate index keeps
                        // values distinct while preserving the marginal skew.
                        let v = dist.sample(&mut rng);
                        ((v + dup) % spec.columns[0].cardinality.max(1)) + 1
                    }
                    None => (dup % spec.columns[0].cardinality.max(1)) + 1,
                };
                join_keys.push(movie);
                columns[0].push(lead_value);
                for (ci, col) in spec.columns.iter().enumerate().skip(1) {
                    let v = match &value_dists[ci] {
                        Some(dist) => dist.sample(&mut rng),
                        None => rng.gen_range(1..=col.cardinality.max(1)),
                    };
                    columns[ci].push(v);
                }
            }
        }

        // Repeat rows (uniformly at random) until the Table-2 row budget is met, so
        // row-count ratios between tables are preserved without changing the distinct
        // (movie, value) structure.
        if join_keys.len() < target_rows && !join_keys.is_empty() {
            let missing = target_rows - join_keys.len();
            for _ in 0..missing {
                let i = rng.gen_range(0..join_keys.len());
                join_keys.push(join_keys[i]);
                for col in &mut columns {
                    let v = col[i];
                    col.push(v);
                }
            }
        }

        SyntheticTable {
            id: spec.id,
            join_keys,
            columns,
        }
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.num_rows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticImdb {
        SyntheticImdb::generate(512, 7)
    }

    #[test]
    fn all_six_tables_are_generated_with_spec_columns() {
        let db = small();
        assert_eq!(db.tables.len(), 6);
        for id in TableId::ALL {
            let t = db.table(id);
            assert_eq!(t.id, id);
            assert_eq!(t.columns.len(), spec_of(id).columns.len());
            for col in &t.columns {
                assert_eq!(col.len(), t.join_keys.len());
            }
            assert!(t.num_rows() > 0, "{} is empty", id.name());
        }
    }

    #[test]
    fn title_has_one_row_per_movie() {
        let db = small();
        let title = db.table(TableId::Title);
        assert_eq!(title.num_rows() as u64, db.num_movies);
        assert_eq!(title.distinct_keys() as u64, db.num_movies);
        // production_year stays in range.
        let (lo, hi) = PRODUCTION_YEAR_RANGE;
        assert!(title.columns[1].iter().all(|&y| (lo..=hi).contains(&y)));
        // kind_id stays within its cardinality.
        assert!(title.columns[0].iter().all(|&k| (1..=6).contains(&k)));
    }

    #[test]
    fn row_count_ratios_follow_table_2() {
        let db = small();
        // cast_info must be the largest table and movie_info_idx among the smallest,
        // with cast_info ≈ 14× title as in the real data.
        let cast = db.table(TableId::CastInfo).num_rows() as f64;
        let title = db.table(TableId::Title).num_rows() as f64;
        let mii = db.table(TableId::MovieInfoIdx).num_rows() as f64;
        assert!(cast / title > 8.0, "cast_info/title ratio {}", cast / title);
        assert!(mii < title, "movie_info_idx should be smaller than title");
    }

    #[test]
    fn duplicate_statistics_track_table_3() {
        let db = SyntheticImdb::generate(256, 3);
        // movie_keyword: mean ≈ 9.48 distinct values per movie, max well above d = 3.
        let mk = db.table(TableId::MovieKeyword);
        let counts = mk.distinct_attr_vectors_per_key();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(
            (4.0..16.0).contains(&mean),
            "movie_keyword mean dupes {mean}"
        );
        assert!(*counts.iter().max().unwrap() > 30, "missing heavy tail");
        // cast_info: mean ≈ 4.7, max ≤ 11 (cardinality bound).
        let ci = db.table(TableId::CastInfo);
        let counts = ci.distinct_attr_vectors_per_key();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!((2.5..7.5).contains(&mean), "cast_info mean dupes {mean}");
        assert!(*counts.iter().max().unwrap() as u64 <= 11);
        // title: exactly one per key.
        let t = db.table(TableId::Title);
        assert!(t.distinct_attr_vectors_per_key().iter().all(|&c| c == 1));
    }

    #[test]
    fn column_values_respect_cardinalities() {
        let db = small();
        for id in TableId::ALL {
            let t = db.table(id);
            let spec = spec_of(id);
            for (ci, col_spec) in spec.columns.iter().enumerate() {
                if col_spec.name == "production_year" {
                    continue; // years use the 1880–2019 range, not 1..=cardinality
                }
                let max = *t.columns[ci].iter().max().unwrap();
                assert!(
                    max <= col_spec.cardinality,
                    "{}.{} exceeds cardinality: {max} > {}",
                    id.name(),
                    col_spec.name,
                    col_spec.cardinality
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed_and_scale() {
        let a = SyntheticImdb::generate(512, 9);
        let b = SyntheticImdb::generate(512, 9);
        assert_eq!(a.num_movies, b.num_movies);
        for (ta, tb) in a.tables.iter().zip(&b.tables) {
            assert_eq!(ta.join_keys, tb.join_keys);
            assert_eq!(ta.columns, tb.columns);
        }
        let c = SyntheticImdb::generate(512, 10);
        assert_ne!(
            a.table(TableId::CastInfo).join_keys,
            c.table(TableId::CastInfo).join_keys
        );
    }

    #[test]
    fn raw_size_accounting_distinguishes_cardinalities() {
        let db = small();
        let mk = db.table(TableId::MovieKeyword); // high-cardinality attribute: 32 + 32
        let ci = db.table(TableId::CastInfo); // low-cardinality attribute: 32 + 8
        assert_eq!(mk.raw_size_bits(), mk.num_rows() * 64);
        assert_eq!(ci.raw_size_bits(), ci.num_rows() * 40);
    }

    #[test]
    fn join_keys_stay_within_movie_universe() {
        let db = small();
        for id in TableId::ALL {
            let t = db.table(id);
            assert!(t.join_keys.iter().all(|&k| k >= 1 && k <= db.num_movies));
        }
    }
}
