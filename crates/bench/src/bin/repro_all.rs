//! Runs the complete reproduction: Tables 1–2, Figures 7–16, the index
//! cache extension and all ablations, sharing expensive sweeps. Records
//! are written to `target/experiments/`.
//!
//! Scale: `QUICK=1` (smoke), default (laptop), `FULL=1` (paper's 20k).

use ace_bench::{emit, figures, Scale};

fn main() {
    let scale = Scale::from_env();
    eprintln!("[repro_all at {scale:?} scale]");

    let (rec, tables) = figures::table01_02();
    emit(&rec, &tables);

    for (rec, tables) in figures::fig07_08(scale) {
        emit(&rec, &tables);
    }
    for (rec, tables) in figures::fig09_10(scale) {
        emit(&rec, &tables);
    }
    for (rec, tables) in figures::depth_figures(scale) {
        emit(&rec, &tables);
    }
    let (rec, tables) = figures::ext_index_cache(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ext_async(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ext_async_churn(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ext_search_strategies(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ext_supernode(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ext_random_walk(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::baseline_gia(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::baseline_ltm(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ablation_policies(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ablation_landmark(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ablation_phases(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ablation_ttl(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ablation_overlays(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ablation_estimation(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ablation_min_flooding(scale);
    emit(&rec, &tables);
    let (rec, tables) = figures::ablation_load(scale);
    emit(&rec, &tables);

    eprintln!("[repro_all complete]");
}
