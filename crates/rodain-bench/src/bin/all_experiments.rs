//! Run every experiment in sequence, writing all CSVs.
//!
//! `cargo run -p rodain-bench --release --bin all_experiments [-- --quick]`

use rodain_bench::experiments::{
    cc_ablation, commit_path, commit_pipe, commit_tier, fig2_panel_a, fig2_panel_b, fig3,
    overload_limit, reservation, saturation, takeover, SweepOptions,
};
use rodain_bench::report::Table;

fn main() {
    let opts = SweepOptions::from_args();
    let started = std::time::Instant::now();
    let run = |name: &str, table: Table| {
        table.print();
        println!("csv: {:?}\n", table.write_csv(name).unwrap());
    };
    run("fig2a", fig2_panel_a(opts));
    run("fig2b", fig2_panel_b(opts));
    run("fig3a", fig3(0.0, opts));
    run("fig3b", fig3(0.2, opts));
    run("fig3c", fig3(0.8, opts));
    run("takeover", takeover(opts));
    run("saturation", saturation(opts));
    run("cc_ablation", cc_ablation(opts));
    run("commit_path", commit_path(opts));
    run("overload_limit", overload_limit(opts));
    run("reservation", reservation(opts));
    {
        // COMMITPIPE runs the real mirrored engine; include it here (it is
        // fast) but keep the regression gate in the standalone binary.
        let report = commit_pipe(opts);
        report.table().print();
        let dir = rodain_bench::report::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_COMMITPIPE.json");
        std::fs::write(&path, report.to_json()).unwrap();
        println!("json: {path:?}\n");
    }
    {
        // COMMITTIER also runs the real mirrored engine; the regression
        // gate stays in the standalone binary.
        let report = commit_tier(opts);
        report.table().print();
        let dir = rodain_bench::report::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_COMMITTIER.json");
        std::fs::write(&path, report.to_json()).unwrap();
        println!("json: {path:?}\n");
    }
    #[cfg(unix)]
    {
        // C10K drives the real server; the regression gate stays in the
        // standalone `c10k` binary.
        let report = rodain_bench::frontend::c10k(opts);
        report.table().print();
        let dir = rodain_bench::report::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_C10K.json");
        std::fs::write(&path, report.to_json()).unwrap();
        println!("json: {path:?}\n");
    }
    // REALENGINE, SHARDSCALE and RECOVERY are deliberately NOT part of
    // the suite: they measure wall-clock behaviour and need an otherwise
    // idle machine. Run them standalone:
    // `cargo run -p rodain-bench --release --bin real_engine`
    // `cargo run -p rodain-bench --release --bin shard_scale`
    // `cargo run -p rodain-bench --release --bin recovery_bench`
    println!("all experiments finished in {:?}", started.elapsed());
}
