//! The committed `BENCH_*.json` files hold the one record schema: each
//! parses with [`Report::read`], has unique record names, is byte-for-byte
//! what the writer prints for it, and passes its own gates.

use advcomp_bench::record::Report;
use std::collections::HashSet;
use std::path::Path;

#[test]
fn committed_bench_files_parse_and_pass_their_gates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut benches = Vec::new();
    for entry in std::fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        let file = path.file_name().unwrap().to_str().unwrap();
        let Some(bench) = file
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        let report = Report::read(path.to_str().unwrap()).unwrap();
        assert_eq!(report.bench, bench, "{file}: bench name");
        let mut names = HashSet::new();
        for r in &report.records {
            assert!(names.insert(&r.name), "{file}: {} appears twice", r.name);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            report.to_string(),
            text,
            "{file}: not in the writer's layout"
        );
        report.check().unwrap_or_else(|e| panic!("{file}: {e}"));
        benches.push(bench.to_string());
    }
    benches.sort();
    assert_eq!(benches, ["detect", "graph", "kernels", "quant", "serve"]);
}
