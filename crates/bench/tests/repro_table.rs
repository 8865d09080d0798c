//! Golden pin of the whole figure table at `Scale::Quick`.
//!
//! `repro` runs the evaluation from `figures::FIGURES`; before that table
//! existed the same 27 records came out of 28 wrapper binaries and one
//! more that listed the same calls by hand. `RECORDS_HASH` was captured on
//! that parent (commit ae42e6d) by folding, in the hand-written order,
//! the `to_json()` of every record its `figures::*` functions returned —
//! the exact bytes it wrote under `target/experiments/` at `QUICK=1` — and
//! must hold on every later commit: a mismatch means a committed figure
//! moved (or the table's order did). Debug and release builds agree.

use ace_bench::figures::FIGURES;
use ace_bench::Scale;

/// FNV-1a over the 27 records' JSON, in table order.
const RECORDS_HASH: u64 = 0x16b8_5a32_2101_14f9;

#[test]
fn every_row_emits_its_advertised_records_and_no_figure_moved() {
    let ids: Vec<&str> = FIGURES.iter().flat_map(|f| f.ids).copied().collect();
    assert_eq!(ids.len(), 27);
    for (i, id) in ids.iter().enumerate() {
        assert!(!ids[..i].contains(id), "record id {id} appears twice");
    }

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for fig in &FIGURES {
        let records = (fig.run)(Scale::Quick);
        let emitted: Vec<&str> = records.iter().map(|(rec, _)| rec.id.as_str()).collect();
        assert_eq!(emitted, fig.ids, "row emits exactly the ids it advertises");
        for (rec, tables) in &records {
            assert!(!tables.is_empty(), "{}: no table to print", rec.id);
            let json = rec.to_json().expect("record serializes");
            hash = json.bytes().fold(hash, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        }
        if fig.ids == ["fig07", "fig08"] {
            // Figure 7 has one falling curve per C and a row per step.
            let (rec7, t7) = &records[0];
            assert_eq!(rec7.series.len(), 4);
            assert_eq!(t7[0].row_count(), Scale::Quick.steps() + 1);
            for s in &rec7.series {
                let first = s.points.first().unwrap().1;
                let last = s.points.last().unwrap().1;
                assert!(last < first, "{}: {first} -> {last}", s.label);
            }
        }
    }
    assert_eq!(
        hash, RECORDS_HASH,
        "the 27 quick-scale records fold to {hash:#018x}"
    );
}
