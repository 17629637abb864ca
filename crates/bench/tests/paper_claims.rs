//! Every claim of every paper table holds on every row of its sweep: the
//! tables `repro` prints are assertions, not prose.

use hpf_bench::paper::TABLES;

fn assert_claims(id: &str) {
    let (_, table) = TABLES.iter().find(|(t, _)| *t == id).unwrap();
    let table = table();
    assert!(!table.claims.is_empty());
    for claim in &table.claims {
        assert!(claim.holds(), "{id}: a claim fails\n\n{table}");
    }
}

macro_rules! tables {
    ($($id:ident)*) => {$(
        #[test]
        fn $id() {
            assert_claims(stringify!($id));
        }
    )*};
}

tables!(e1 e2 e3 e4 e5 e6 e7 e8 e9 e10);

#[test]
fn the_tests_above_cover_every_table() {
    let ids: Vec<&str> = TABLES.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"]);
}
