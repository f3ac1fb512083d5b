//! Regenerate every table and figure; CSVs land in results/.
use otae_bench::experiments::{
    ablations, baselines, cluster, drift, fig2, fig5, figures, ftl_wear, online, table1, tails,
    tiered, trace_stats,
};

fn main() {
    let t0 = std::time::Instant::now();
    println!("### trace statistics (§2.2, Figure 3)\n");
    trace_stats::run();
    println!("### Figure 2\n");
    fig2::run();
    println!("### Table 1\n");
    table1::run();
    println!("### Figure 5\n");
    fig5::run();
    println!("### Figures 6-10\n");
    let grid = figures::FigureGrid::compute();
    grid.emit(figures::Metric::FileHitRate, 6, "fig6_file_hit_rate");
    grid.emit(figures::Metric::ByteHitRate, 7, "fig7_byte_hit_rate");
    grid.emit(figures::Metric::FileWriteRate, 8, "fig8_file_write_rate");
    grid.emit(figures::Metric::ByteWriteRate, 9, "fig9_byte_write_rate");
    grid.emit(figures::Metric::ResponseTime, 10, "fig10_response_time");
    println!("### Ablations\n");
    ablations::cost_matrix();
    ablations::history_table();
    ablations::features();
    ablations::criteria();
    ablations::ensemble_tradeoff();
    ablations::ssd_lifetime();
    println!("### Extensions: tiered OC/DC topology, online learning\n");
    tiered::run();
    online::run();
    baselines::run();
    ftl_wear::run();
    drift::run();
    cluster::run();
    tails::run();
    println!("all experiments done in {:?}", t0.elapsed());
}
