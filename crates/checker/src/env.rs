//! The six `REMIX_*` environment hooks, parsed in one place.
//!
//! CI flips whole suites between modes by setting these variables (the option structs'
//! `Default` impls read them), so a value that is *almost* right must never fall back
//! to the default: `REMIX_SYMMETRY=canonicalise` would run the symmetry leg with
//! symmetry off and go green.  Every hook therefore accepts exactly the spellings in
//! the table below, or being unset, and anything else aborts at option construction
//! naming the variable, the value and the accepted list.
//!
//! | variable | accepted values |
//! |---|---|
//! | `REMIX_SYMMETRY` | `canonicalize` / `canonical` / `on`, `off` |
//! | `REMIX_STORE_MODE` | `fingerprint-only` / `fingerprint_only`, `full` |
//! | `REMIX_POR`, `REMIX_SYNC_AUDIT` | `1` / `true` / `on`, `0` / `false` / `off` |
//! | `REMIX_MEM_BUDGET` | a byte count below 2^64, optionally suffixed `k`/`m`/`g` (`kb`, `mib`, …) |
//! | `REMIX_SPILL_DIR` | any non-empty path |

use std::ffi::OsString;
use std::path::PathBuf;

use crate::options::SymmetryMode;
use crate::spill::parse_mem_budget;
use crate::store::StoreMode;

/// One hook with a closed set of spellings: the variable and its `(spellings, value)`
/// table.
pub(crate) struct Hook<T: 'static> {
    var: &'static str,
    table: &'static [(&'static [&'static str], T)],
}

const ON: (&[&str], bool) = (&["1", "true", "on"], true);
const OFF: (&[&str], bool) = (&["0", "false", "off"], false);

pub(crate) const SYMMETRY: Hook<SymmetryMode> = Hook {
    var: "REMIX_SYMMETRY",
    table: &[
        (
            &["canonicalize", "canonical", "on"],
            SymmetryMode::Canonicalize,
        ),
        (&["off"], SymmetryMode::Off),
    ],
};
pub(crate) const STORE_MODE: Hook<StoreMode> = Hook {
    var: "REMIX_STORE_MODE",
    table: &[
        (
            &["fingerprint-only", "fingerprint_only"],
            StoreMode::FingerprintOnly,
        ),
        (&["full"], StoreMode::Full),
    ],
};
pub(crate) const POR: Hook<bool> = Hook {
    var: "REMIX_POR",
    table: &[ON, OFF],
};
pub(crate) const SYNC_AUDIT: Hook<bool> = Hook {
    var: "REMIX_SYNC_AUDIT",
    table: &[ON, OFF],
};

impl<T: Copy> Hook<T> {
    /// Looks `raw` up in the spelling table; `None` (unset) is always accepted.
    fn parse(&self, raw: Option<&str>) -> Result<Option<T>, String> {
        let Some(raw) = raw else { return Ok(None) };
        match self
            .table
            .iter()
            .find(|(spellings, _)| spellings.contains(&raw))
        {
            Some((_, value)) => Ok(Some(*value)),
            None => {
                let accepted: Vec<&str> = self
                    .table
                    .iter()
                    .flat_map(|(s, _)| s.iter().copied())
                    .collect();
                Err(format!(
                    "{}={raw:?} is not an accepted value (accepted: {}, or unset)",
                    self.var,
                    accepted.join(", ")
                ))
            }
        }
    }

    /// The hook's value in this process's environment (`None` when unset).
    pub(crate) fn read(&self) -> Option<T> {
        or_abort(self.parse(raw(self.var).as_deref()))
    }
}

fn parse_budget(raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else { return Ok(None) };
    parse_mem_budget(raw).map(Some).ok_or_else(|| {
        format!(
            "REMIX_MEM_BUDGET={raw:?} is not an accepted value (accepted: a byte count \
             below 2^64, optionally suffixed k/kb/kib, m/mb/mib or g/gb/gib, or unset)"
        )
    })
}

fn raw(var: &str) -> Option<String> {
    std::env::var_os(var).map(|v| v.to_string_lossy().into_owned())
}

/// A mistyped hook must stop the run, not silently select a different one.
fn or_abort<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|message| panic!("{message}"))
}

pub(crate) fn mem_budget() -> Option<u64> {
    or_abort(parse_budget(raw("REMIX_MEM_BUDGET").as_deref()))
}

/// An empty path would silently spill into the working directory.
fn parse_dir(raw: Option<OsString>) -> Result<Option<PathBuf>, String> {
    match raw {
        Some(raw) if raw.is_empty() => Err("REMIX_SPILL_DIR=\"\" is not an accepted value \
             (accepted: a non-empty path, or unset)"
            .to_owned()),
        raw => Ok(raw.map(PathBuf::from)),
    }
}

pub(crate) fn spill_dir() -> Option<PathBuf> {
    or_abort(parse_dir(std::env::var_os("REMIX_SPILL_DIR")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_hooks_parse_to_none() {
        assert_eq!(SYMMETRY.parse(None), Ok(None));
        assert_eq!(STORE_MODE.parse(None), Ok(None));
        assert_eq!(POR.parse(None), Ok(None));
        assert_eq!(parse_budget(None), Ok(None));
        assert_eq!(parse_dir(None), Ok(None));
    }

    #[test]
    fn documented_spellings_are_accepted() {
        for on in ["canonicalize", "canonical", "on"] {
            assert_eq!(
                SYMMETRY.parse(Some(on)),
                Ok(Some(SymmetryMode::Canonicalize))
            );
        }
        assert_eq!(SYMMETRY.parse(Some("off")), Ok(Some(SymmetryMode::Off)));
        for fp in ["fingerprint-only", "fingerprint_only"] {
            assert_eq!(
                STORE_MODE.parse(Some(fp)),
                Ok(Some(StoreMode::FingerprintOnly))
            );
        }
        assert_eq!(STORE_MODE.parse(Some("full")), Ok(Some(StoreMode::Full)));
        for on in ["1", "true", "on"] {
            assert_eq!(POR.parse(Some(on)), Ok(Some(true)));
        }
        for off in ["0", "false", "off"] {
            assert_eq!(POR.parse(Some(off)), Ok(Some(false)));
        }
        assert_eq!(parse_budget(Some("1m")), Ok(Some(1 << 20)));
        assert_eq!(parse_budget(Some("64 KiB")), Ok(Some(64 << 10)));
        assert_eq!(parse_budget(Some("4096")), Ok(Some(4096)));
        assert_eq!(
            parse_dir(Some("spill/here".into())),
            Ok(Some(PathBuf::from("spill/here")))
        );
    }

    #[test]
    fn near_misses_are_rejected_with_the_variable_the_value_and_the_accepted_list() {
        // The four typos of the issue: each used to select the default silently.
        let err = SYMMETRY.parse(Some("canonicalise")).unwrap_err();
        assert!(
            err.contains("REMIX_SYMMETRY") && err.contains("\"canonicalise\""),
            "{err}"
        );
        assert!(err.contains("canonicalize, canonical, on, off"), "{err}");
        let err = STORE_MODE.parse(Some("fp-only")).unwrap_err();
        assert!(
            err.contains("REMIX_STORE_MODE") && err.contains("\"fp-only\""),
            "{err}"
        );
        assert!(
            err.contains("fingerprint-only, fingerprint_only, full"),
            "{err}"
        );
        let err = parse_budget(Some("1mib x")).unwrap_err();
        assert!(
            err.contains("REMIX_MEM_BUDGET") && err.contains("\"1mib x\""),
            "{err}"
        );
        // 2^34 GiB is 2^64 bytes: it used to wrap to a zero-byte budget.
        let err = parse_budget(Some("17179869184g")).unwrap_err();
        assert!(
            err.contains("REMIX_MEM_BUDGET") && err.contains("\"17179869184g\""),
            "{err}"
        );
        let err = parse_dir(Some(OsString::new())).unwrap_err();
        assert!(
            err.contains("REMIX_SPILL_DIR") && err.contains("non-empty path"),
            "{err}"
        );
        let err = POR.parse(Some("yes")).unwrap_err();
        assert!(
            err.contains("REMIX_POR") && err.contains("\"yes\""),
            "{err}"
        );
        assert!(err.contains("1, true, on, 0, false, off"), "{err}");
        // No hook spells "on" as `owner`; case and padding count.
        assert!(POR.parse(Some("owner")).is_err());
        assert!(SYMMETRY.parse(Some("Canonicalize")).is_err());
        assert!(STORE_MODE.parse(Some(" full")).is_err());
        assert!(SYNC_AUDIT.parse(Some("")).is_err());
    }
}
