//! Golden outcomes of every replay loop on one small seeded trace.
//!
//! The pipeline ≡ serve oracles compare two drivers of the same request
//! kernel, so they cannot notice the kernel itself drifting. These literals
//! were recorded from the code as it stood *before* the loops were folded
//! into `otae_core::engine` (commit fad1728) and pin simulator, cluster,
//! tiers and online learner to that behaviour. The one row recorded later is
//! the LIRS cluster, whose `M` the parent forgot to scale (§4.3).
//!
//! On a mismatch the failure message prints the whole table as it is now.

use otae_cache::CacheStats;
use otae_core::cluster::{run_cluster, ClusterConfig};
use otae_core::online::{run_online_with, OnlineModelKind};
use otae_core::pipeline::{run_with_index, Mode, PolicyKind, RunConfig, RunFingerprint};
use otae_core::tiered::{run_tiered_with_index, TierConfig, TieredConfig};
use otae_core::ReaccessIndex;
use otae_device::LatencyModel;
use otae_ml::ConfusionMatrix;
use otae_trace::{generate, Trace, TraceConfig};

fn setup() -> (Trace, ReaccessIndex, u64) {
    let t = generate(&TraceConfig { n_objects: 4_000, seed: 1303, ..Default::default() });
    let i = ReaccessIndex::build(&t);
    let cap = (t.unique_bytes() as f64 * 0.02) as u64;
    (t, i, cap)
}

/// Destructured without `..`: a new counter has to be placed here first.
fn stats_line(s: &CacheStats) -> String {
    let CacheStats {
        accesses,
        hits,
        bytes_accessed,
        bytes_hit,
        files_written,
        bytes_written,
        bypasses,
        evictions,
        bytes_evicted,
    } = *s;
    format!(
        "{accesses} {hits} {bytes_accessed} {bytes_hit} {files_written} {bytes_written} \
         {bypasses} {evictions} {bytes_evicted}"
    )
}

fn confusion_line(c: &ConfusionMatrix) -> String {
    let ConfusionMatrix { tp, fp, fn_, tn } = *c;
    format!("{tp} {fp} {fn_} {tn}")
}

fn fingerprint_line(f: &RunFingerprint) -> String {
    let RunFingerprint {
        stats,
        m,
        confusion,
        rectifications,
        trainings,
        service_time_us,
        service_peak_us,
    } = f;
    let classifier = match (confusion, rectifications, trainings) {
        (Some(c), Some(r), Some(t)) => format!("{} r{r} t{t}", confusion_line(c)),
        (None, None, None) => "-".to_string(),
        other => panic!("classifier fields must be all-or-nothing: {other:?}"),
    };
    format!("{} | m{m} | {classifier} | {service_time_us} {service_peak_us}", stats_line(stats))
}

/// Compare `(label, actual)` rows against the recorded literals, printing
/// the whole current table when any row differs.
fn check(table: &str, actual: Vec<(String, String)>, golden: &[(&str, &str)]) {
    let same = actual.len() == golden.len()
        && actual.iter().zip(golden).all(|((l, v), (gl, gv))| l == gl && v == gv);
    if !same {
        let mut now = String::new();
        for (label, value) in &actual {
            now.push_str(&format!("    (\"{label}\", \"{value}\"),\n"));
        }
        panic!("{table} drifted from the recorded parent behaviour; it is now:\n{now}");
    }
}

const PIPELINE: &[(&str, &str)] = &[
    ("LRU/Original", "18164 6629 600359901 211829136 11535 388530765 0 11456 385916550 | m322 | - | 142977098 86871"),
    ("LRU/SecondHit", "18164 8496 600359901 275232894 2780 94788670 6888 2706 92193169 | m322 | - | 119832030 86871"),
    ("LRU/TinyLFU", "18164 8271 600359901 267004942 4819 163634679 5074 4741 160997998 | m322 | - | 122625259 86871"),
    ("LRU/RejectX", "18164 8501 600359901 275543766 2780 94665009 6883 2704 92037873 | m322 | - | 119769106 86871"),
    ("LRU/CoinFlip", "18164 7314 600359901 234601587 5403 181545977 5447 5323 178906523 | m322 | - | 134488501 86871"),
    ("LRU/Proposal", "18164 8167 600359901 264294709 4885 166295605 5112 4810 163692878 | m322 | 4335 797 2185 2058 r20 t8 | 123909077 86871"),
    ("LRU/Ideal", "18164 9898 600359901 322093614 1951 65863675 6315 1873 63264808 | m322 | - | 102456556 86871"),
    ("S3LRU/Original", "18164 7993 600359901 258293697 10171 342066204 0 10092 339514639 | m322 | - | 126066757 86871"),
    ("S3LRU/SecondHit", "18164 8837 600359901 284996220 2676 92087879 6651 2599 89475347 | m322 | - | 115616812 86622"),
    ("S3LRU/TinyLFU", "18164 8648 600359901 279948653 4438 150519044 5078 4358 147878287 | m322 | - | 117950665 86622"),
    ("S3LRU/RejectX", "18164 8840 600359901 285480814 2679 91751004 6645 2602 89138472 | m322 | - | 115577067 86622"),
    ("S3LRU/CoinFlip", "18164 8134 600359901 261552567 4966 168158301 5064 4890 165542404 | m322 | - | 124328974 86622"),
    ("S3LRU/Proposal", "18164 8621 600359901 279503072 4490 152899510 5053 4413 150279326 | m322 | 4326 745 2175 1714 r18 t8 | 118282278 86547"),
    ("S3LRU/Ideal", "18164 9624 600359901 311914380 2020 68516897 6520 1944 65893503 | m322 | - | 105859144 86622"),
    ("ARC/Original", "18164 8696 600359901 281298054 9468 319061847 0 9393 316432860 | m322 | - | 117357498 86871"),
    ("ARC/SecondHit", "18164 8798 600359901 284220576 2595 88653981 6771 2516 86048802 | m322 | - | 116096615 86622"),
    ("ARC/TinyLFU", "18164 8802 600359901 284364847 4300 146465311 5062 4220 143826429 | m322 | - | 116046977 86871"),
    ("ARC/RejectX", "18164 8798 600359901 284220576 2596 88687108 6770 2517 86081929 | m322 | - | 116096615 86622"),
    ("ARC/CoinFlip", "18164 8550 600359901 277565832 4763 160102910 4851 4682 157472268 | m322 | - | 119159285 86871"),
    ("ARC/Proposal", "18164 8794 600359901 284059236 4341 148947044 5029 4266 146327602 | m322 | 4316 731 2075 1663 r18 t8 | 116146374 86871"),
    ("ARC/Ideal", "18164 9487 600359901 307730884 2098 70935929 6579 2022 68312848 | m322 | - | 107554390 86547"),
    ("LIRS/Original", "18164 7824 600359901 248121787 10340 352238114 0 10253 349636746 | m318 | - | 128191366 86871"),
    ("LIRS/SecondHit", "18164 8726 600359901 280457203 2619 91083911 6819 2544 88473326 | m318 | - | 116997989 86871"),
    ("LIRS/TinyLFU", "18164 8709 600359901 279282529 4346 150682671 5109 4268 148055650 | m318 | - | 117212713 86871"),
    ("LIRS/RejectX", "18164 8726 600359901 280457203 2620 91117038 6818 2545 88506453 | m318 | - | 116997989 86871"),
    ("LIRS/CoinFlip", "18164 8167 600359901 261982241 4953 166310630 5044 4869 163694842 | m318 | - | 123924497 86871"),
    ("LIRS/Proposal", "18164 8568 600359901 275719965 4543 158284272 5053 4466 155653790 | m318 | 4323 754 2134 1824 r24 t8 | 118952510 86871"),
    ("LIRS/Ideal", "18164 9787 600359901 315365889 1957 67366090 6420 1881 64744580 | m318 | - | 103852335 74461"),
];

#[test]
fn pipeline_fingerprints_match_the_parent() {
    let (t, i, cap) = setup();
    let mut rows = Vec::new();
    for policy in [PolicyKind::Lru, PolicyKind::S3Lru, PolicyKind::Arc, PolicyKind::Lirs] {
        for mode in Mode::ALL {
            let r = run_with_index(&t, &i, &RunConfig::new(policy, mode, cap));
            rows.push((
                format!("{}/{}", policy.name(), mode.name()),
                fingerprint_line(&r.fingerprint()),
            ));
        }
    }
    check("PIPELINE", rows, PIPELINE);
}

const CLUSTER: &[(&str, &str)] = &[
    ("Original/total", "18164 6033 600359901 189516063 12131 410843838 0 12050 408302181"),
    ("Original/node0", "5345 1568 178794269 49739190 3777 129055079 0 3758 128437737"),
    ("Original/node1", "4640 1370 152657444 43763997 3270 108893447 0 3248 108265418"),
    ("Original/node2", "2362 874 71041682 23475013 1488 47566669 0 1466 46926608"),
    ("Original/node3", "5817 2221 197866506 72537863 3596 125328643 0 3578 124672418"),
    ("Ideal/total", "18164 8867 600359901 287948665 725 24514391 8572 645 22036523"),
    ("Ideal/node0", "5345 2485 178794269 81871326 243 8531866 2617 223 7882396"),
    ("Ideal/node1", "4640 2031 152657444 67519388 156 5257356 2453 137 4640606"),
    ("Ideal/node2", "2362 1205 71041682 33203781 77 2299252 1080 53 1646716"),
    ("Ideal/node3", "5817 3146 197866506 105354170 249 8425917 2422 232 7866805"),
    ("Proposal/total", "18164 7893 600359901 253715374 2356 81714688 7915 2276 79192886"),
    ("Proposal/node0", "5345 2149 178794269 69759884 760 26491268 2436 743 25911383"),
    ("Proposal/node1", "4640 1854 152657444 61090178 504 17680002 2282 486 17038462"),
    ("Proposal/node2", "2362 1094 71041682 29781005 333 10711009 935 307 10056821"),
    ("Proposal/node3", "5817 2796 197866506 93084307 759 26832409 2262 740 26186220"),
    ("TinyLFU/total", "18164 7666 600359901 245074337 5210 178096485 5288 5135 175606812"),
    ("TinyLFU/node0", "5345 2081 178794269 67657957 1600 54602332 1664 1584 53993851"),
    ("TinyLFU/node1", "4640 1780 152657444 57517645 1346 45635999 1514 1326 45032814"),
    ("TinyLFU/node2", "2362 1091 71041682 29541941 589 18441065 682 568 17794019"),
    ("TinyLFU/node3", "5817 2714 197866506 90356794 1675 59417089 1428 1657 58786128"),
];

fn cluster_rows(policy: PolicyKind) -> Vec<(String, String)> {
    let (t, i, cap) = setup();
    let mut rows = Vec::new();
    for mode in [Mode::Original, Mode::Ideal, Mode::Proposal, Mode::TinyLfu] {
        let mut cfg = ClusterConfig::new(4, cap / 4, mode);
        cfg.policy = policy;
        cfg.failure = Some((2, (t.len() / 2) as u64));
        let r = run_cluster(&t, &i, &cfg);
        rows.push((format!("{}/total", mode.name()), stats_line(&r.total)));
        for (n, s) in r.per_node.iter().enumerate() {
            rows.push((format!("{}/node{n}", mode.name()), stats_line(s)));
        }
    }
    rows
}

#[test]
fn cluster_counters_match_the_parent() {
    check("CLUSTER", cluster_rows(PolicyKind::Lru), CLUSTER);
}

/// Recorded after `run_cluster` started scaling `M` for LIRS (§5.2) like
/// every other driver; the parent solved these nodes with the LRU threshold.
const CLUSTER_LIRS: &[(&str, &str)] = &[
    ("Original/total", "18164 6290 600359901 198948891 11874 401411010 0 11792 398825554"),
    ("Original/node0", "5345 1648 178794269 52034633 3697 126759636 0 3679 126114932"),
    ("Original/node1", "4640 1440 152657444 46549598 3200 106107846 0 3178 105472076"),
    ("Original/node2", "2362 912 71041682 24760818 1450 46280864 0 1426 45632107"),
    ("Original/node3", "5817 2290 197866506 75603842 3527 122262664 0 3509 121606439"),
    ("Ideal/total", "18164 8807 600359901 286537736 720 24421235 8637 641 21953340"),
    ("Ideal/node0", "5345 2460 178794269 81472388 243 8584535 2642 224 7945038"),
    ("Ideal/node1", "4640 2013 152657444 66932316 153 5257991 2474 134 4641241"),
    ("Ideal/node2", "2362 1201 71041682 33017672 76 2250792 1085 52 1598256"),
    ("Ideal/node3", "5817 3133 197866506 105115360 248 8327917 2436 231 7768805"),
    ("Proposal/total", "18164 7939 600359901 254613541 2266 78790747 7959 2186 76206193"),
    ("Proposal/node0", "5345 2142 178794269 68944069 750 26441004 2453 732 25799321"),
    ("Proposal/node1", "4640 1850 152657444 61512369 504 17821565 2286 486 17180025"),
    ("Proposal/node2", "2362 1109 71041682 30043358 327 10525456 926 300 9868894"),
    ("Proposal/node3", "5817 2838 197866506 94113745 685 24002722 2294 668 23357953"),
    ("TinyLFU/total", "18164 7783 600359901 249551382 5091 173353580 5290 5014 170854275"),
    ("TinyLFU/node0", "5345 2080 178794269 67853903 1600 54417235 1665 1581 53787324"),
    ("TinyLFU/node1", "4640 1824 152657444 59216208 1306 44073524 1510 1286 43470339"),
    ("TinyLFU/node2", "2362 1113 71041682 30181511 566 17705563 683 545 17045929"),
    ("TinyLFU/node3", "5817 2766 197866506 92299760 1619 57157258 1432 1602 56550683"),
];

#[test]
fn lirs_cluster_counters_are_pinned() {
    check("CLUSTER_LIRS", cluster_rows(PolicyKind::Lirs), CLUSTER_LIRS);
}

const TIERED: &[(&str, &str)] = &[
    (
        "Proposal-over-Original/oc",
        "18164 4333 600359901 133468265 4302 144632115 9529 4284 144026378",
    ),
    ("Proposal-over-Original/dc", "13831 4103 466891636 140561472 9728 326330164 0 9593 321941261"),
    ("Ideal-over-SecondHit/oc", "18164 5834 600359901 184933929 2081 69703788 10249 2062 69099071"),
    ("Ideal-over-SecondHit/dc", "12330 4425 415425972 150255056 2436 82854443 5469 2304 78476741"),
];

#[test]
fn tiered_counters_match_the_parent() {
    let (t, i, _) = setup();
    let unique = t.unique_bytes();
    let mut rows = Vec::new();
    for (oc_mode, dc_mode) in [(Mode::Proposal, Mode::Original), (Mode::Ideal, Mode::SecondHit)] {
        let cfg = TieredConfig {
            oc: TierConfig { policy: PolicyKind::Lru, mode: oc_mode, capacity: unique / 200 },
            dc: TierConfig { policy: PolicyKind::Lru, mode: dc_mode, capacity: unique / 30 },
            wan_hop_us: 10_000.0,
            latency: LatencyModel::default(),
        };
        let r = run_tiered_with_index(&t, &i, &cfg);
        let label = format!("{}-over-{}", oc_mode.name(), dc_mode.name());
        rows.push((format!("{label}/oc"), stats_line(&r.oc.stats)));
        rows.push((format!("{label}/dc"), stats_line(&r.dc.stats)));
    }
    check("TIERED", rows, TIERED);
}

const ONLINE: &[(&str, &str)] = &[
    ("online logistic", "18164 7549 600359901 241968802 6846 231766546 3769 6774 229135645 | 3047 759 3608 2538 | labels 10464"),
    ("Hoeffding tree", "18164 6939 600359901 222737084 8151 275244977 3074 8072 272630762 | 2122 1032 4675 2733 | labels 11070"),
];

#[test]
fn online_learners_match_the_parent() {
    let (t, i, cap) = setup();
    let mut rows = Vec::new();
    for kind in [OnlineModelKind::Logistic, OnlineModelKind::Hoeffding] {
        let r =
            run_online_with(&t, &i, &RunConfig::new(PolicyKind::Lru, Mode::Proposal, cap), kind);
        rows.push((
            kind.name().to_string(),
            format!(
                "{} | {} | labels {}",
                stats_line(&r.stats),
                confusion_line(&r.confusion),
                r.labels_consumed
            ),
        ));
    }
    check("ONLINE", rows, ONLINE);
}
