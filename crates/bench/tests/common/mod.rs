//! Shared by the CLI tests of the three emitting harnesses (`perf`,
//! `exec`, `loadgen`).

use tss_bench::json::{fields, get, rows, Object};

/// Parses the artifact `doc` with the artifact reader and asserts that
/// the document, its first row and its `totals` carry at least the keys
/// of `baseline` — a committed `ci/baselines/*.json`, or a fixed key
/// list spelled as a document. (Otherwise only `bench_check`, in CI,
/// would notice a dropped key.) Keys ending in `except` are not asked
/// for: the obs quantiles of an obs-build baseline, in a default build.
pub fn assert_carries_keys_of(doc: &str, baseline: &str, except: Option<&str>) {
    fn totals<'a>(doc: &Object<'a>) -> Object<'a> {
        fields(get(doc, "totals").expect("totals")).expect("totals")
    }
    let base = fields(baseline).expect("baseline parses");
    let fresh = fields(doc).expect("the artifact parses with the artifact reader");
    let (base_rows, fresh_rows) = (rows(&base).expect("rows"), rows(&fresh).expect("rows"));
    for (who, want, have) in [
        ("document", &base, &fresh),
        ("row 0", &base_rows[0], &fresh_rows[0]),
        ("totals", &totals(&base), &totals(&fresh)),
    ] {
        for (key, _) in want.iter().filter(|(k, _)| !except.is_some_and(|e| k.ends_with(e))) {
            assert!(get(have, key).is_some(), "{who}: the artifact dropped key '{key}'");
        }
    }
}
