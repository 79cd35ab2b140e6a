//! Daemon configuration: tenant specifications and listener settings.
//!
//! A tenant spec is a comma-separated `key=value` string, the shape a `--tenant`
//! flag carries:
//!
//! ```text
//! id=1,variant=mixed,shards=4,buckets=1024,attrs=2,seed=42,grow=true
//! ```
//!
//! `id` is required; everything else defaults sensibly. `shards=1` (the default)
//! hosts a single [`ccf_core::AnyCcf`]; more hosts a [`ccf_shard::ShardedCcf`].
//! Filter construction goes through [`ccf_core::CcfBuilder`], so an invalid
//! parameter combination is a typed startup error.

use ccf_core::{CcfBuilder, CcfParams, VariantKind};

use crate::error::ServiceError;

/// One tenant's filter configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Wire-visible tenant id.
    pub id: u32,
    /// Filter variant every shard uses.
    pub variant: VariantKind,
    /// Shard count; `1` hosts a plain `AnyCcf`.
    pub shards: usize,
    /// Per-shard (or whole-filter) parameters.
    pub params: CcfParams,
}

fn parse_variant(v: &str) -> Result<VariantKind, ServiceError> {
    Ok(match v {
        "plain" => VariantKind::Plain,
        "chained" => VariantKind::Chained,
        "bloom" => VariantKind::Bloom,
        "mixed" => VariantKind::Mixed,
        other => {
            return Err(ServiceError::Config(format!(
                "unknown variant {other:?}; expected plain|chained|bloom|mixed"
            )))
        }
    })
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, ServiceError> {
    v.parse()
        .map_err(|_| ServiceError::Config(format!("{key}={v:?} is not a valid number")))
}

impl TenantSpec {
    /// Parse a `key=value,...` spec. Unknown keys are rejected so a typo'd flag
    /// cannot silently configure nothing.
    pub fn parse(spec: &str) -> Result<Self, ServiceError> {
        let mut id = None;
        let mut variant = VariantKind::Chained;
        let mut shards = 1usize;
        let mut buckets = 1usize << 10;
        let mut attrs = 2usize;
        let mut seed = 0u64;
        let mut grow = true;
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=').ok_or_else(|| {
                ServiceError::Config(format!("tenant spec part {part:?} is not key=value"))
            })?;
            match key {
                "id" => id = Some(parse_num("id", value)?),
                "variant" => variant = parse_variant(value)?,
                "shards" => shards = parse_num("shards", value)?,
                "buckets" => buckets = parse_num("buckets", value)?,
                "attrs" => attrs = parse_num("attrs", value)?,
                "seed" => seed = parse_num("seed", value)?,
                "grow" => {
                    grow = match value {
                        "true" => true,
                        "false" => false,
                        _ => {
                            return Err(ServiceError::Config(format!(
                                "grow={value:?} is not true|false"
                            )))
                        }
                    }
                }
                other => {
                    return Err(ServiceError::Config(format!(
                        "unknown tenant spec key {other:?}"
                    )))
                }
            }
        }
        let id = id.ok_or_else(|| ServiceError::Config("tenant spec needs id=<n>".into()))?;
        if shards == 0 {
            return Err(ServiceError::Config("shards must be >= 1".into()));
        }
        let mut builder = CcfBuilder::new()
            .variant(variant)
            .num_buckets(buckets)
            .num_attrs(attrs)
            .seed(seed);
        if grow {
            builder = builder.auto_grow();
        }
        let params = builder.build_params()?;
        Ok(TenantSpec {
            id,
            variant,
            shards,
            params,
        })
    }
}

/// Everything the daemon needs to start.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Listen address; `127.0.0.1:0` picks an ephemeral loopback port.
    pub listen: String,
    /// Hosted tenants.
    pub tenants: Vec<TenantSpec>,
    /// Where snapshots are written on shutdown (and warm-loaded from on start).
    pub snapshot_dir: Option<std::path::PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            listen: "127.0.0.1:0".into(),
            tenants: Vec::new(),
            snapshot_dir: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_with_defaults_and_overrides() {
        let t = TenantSpec::parse("id=3").unwrap();
        assert_eq!(t.id, 3);
        assert_eq!(t.variant, VariantKind::Chained);
        assert_eq!(t.shards, 1);
        assert!(t.params.auto_grow);

        let t =
            TenantSpec::parse("id=7,variant=mixed,shards=4,buckets=512,attrs=3,seed=9").unwrap();
        assert_eq!(t.variant, VariantKind::Mixed);
        assert_eq!(t.shards, 4);
        assert_eq!(t.params.num_buckets, 512);
        assert_eq!(t.params.num_attrs, 3);
        assert_eq!(t.params.seed, 9);
    }

    #[test]
    fn malformed_specs_are_typed_config_errors() {
        for bad in [
            "",                     // no id
            "variant=plain",        // no id
            "id=x",                 // non-numeric
            "id=1,variant=quantum", // unknown variant
            "id=1,shards=0",        // zero shards
            "id=1,bogus=3",         // unknown key
            "id=1,grow=maybe",      // bad bool
            "id=1,oops",            // not key=value
        ] {
            assert!(
                matches!(TenantSpec::parse(bad), Err(ServiceError::Config(_))),
                "spec {bad:?} should be rejected"
            );
        }
    }
}
