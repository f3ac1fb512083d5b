//! Online extraction of the paper's classifying features (§3.2).
//!
//! The classifier must judge a photo **at miss time with no per-object
//! history**, so every feature is computable from (a) upload-time metadata,
//! (b) the owner's aggregate behaviour so far, and (c) cache-system state:
//!
//! | # | feature | paper §3.2.1 |
//! |---|---------|--------------|
//! | 0 | owner's average views per photo | photo owner's social information |
//! | 1 | owner's active friends | photo owner's social information |
//! | 2 | photo type (1–12) | photo information |
//! | 3 | photo size (KiB) | photo information |
//! | 4 | photo age (10-minute units) | photo information |
//! | 5 | recency (10-minute units; since upload when never accessed) | photo information |
//! | 6 | terminal type (0 = PC, 1 = mobile) | cache system information |
//! | 7 | requests in the last minute | cache system information |
//! | 8 | hour of day (0–23) | cache system information |
//!
//! Discretisation follows §3.2.3: types map to 1–12, terminals to 0/1, time
//! intervals to 10-minute granularity and access time to the hour.

use otae_trace::{Request, Trace};
use std::collections::VecDeque;

/// Number of extracted features.
pub const N_FEATURES: usize = 9;

/// Feature names, aligned with the extraction order.
pub const FEATURE_NAMES: [&str; N_FEATURES] = [
    "avg_views",
    "active_friends",
    "photo_type",
    "photo_size_kb",
    "photo_age_10min",
    "recency_10min",
    "terminal",
    "recent_requests",
    "access_hour",
];

const TEN_MINUTES: f64 = 600.0;

/// Streaming feature extractor.
///
/// Call [`FeatureExtractor::extract`] *before* [`FeatureExtractor::update`]
/// for each request, so features reflect the state prior to the access —
/// exactly what the classifier would see in production.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    /// Per-owner (total observed views, distinct photos seen).
    owner_views: Vec<(u64, u32)>,
    /// Per-object timestamp of the last access (`u64::MAX` = never).
    last_access: Vec<u64>,
    /// Timestamps of requests in the trailing 60 s window.
    window: VecDeque<u64>,
}

impl FeatureExtractor {
    /// Extractor sized for `trace`'s object and owner populations.
    pub fn new(trace: &Trace) -> Self {
        Self {
            owner_views: vec![(0, 0); trace.owners.len()],
            last_access: vec![u64::MAX; trace.meta.len()],
            window: VecDeque::new(),
        }
    }

    /// Extract the feature row for `req` (state *before* the access).
    pub fn extract(&mut self, trace: &Trace, req: &Request) -> [f32; N_FEATURES] {
        let meta = trace.photo(req.object);
        let owner = &trace.owners[meta.owner.0 as usize];
        let (views, photos) = self.owner_views[meta.owner.0 as usize];
        let avg_views = if photos == 0 { 0.0 } else { views as f32 / photos as f32 };

        let age_s = (req.ts as i64 - meta.upload_ts).max(0) as f64;
        let last = self.last_access[req.object.0 as usize];
        let recency_s = if last == u64::MAX {
            age_s // never accessed: interval since upload (§3.2.1)
        } else {
            (req.ts - last) as f64
        };

        // Slide the 60 s window up to the current timestamp.
        while let Some(&front) = self.window.front() {
            if front + 60 <= req.ts {
                self.window.pop_front();
            } else {
                break;
            }
        }

        [
            avg_views,
            owner.active_friends as f32,
            meta.ptype.code() as f32,
            meta.size as f32 / 1024.0,
            (age_s / TEN_MINUTES) as f32,
            (recency_s / TEN_MINUTES) as f32,
            req.terminal as u8 as f32,
            self.window.len() as f32,
            ((req.ts % 86_400) / 3_600) as f32,
        ]
    }

    /// Extract the feature row for every request in the trace, in order.
    ///
    /// Feature extraction depends only on the request stream — never on
    /// admission or eviction decisions — so the column is computed once per
    /// trace: [`ReaccessIndex::features`](crate::ReaccessIndex::features)
    /// calls this on its first use and shares the result with every later
    /// run over the index (a sweep's whole grid, every serve call).
    pub fn extract_all(trace: &Trace) -> Vec<[f32; N_FEATURES]> {
        let mut fx = FeatureExtractor::new(trace);
        trace
            .requests
            .iter()
            .map(|req| {
                let f = fx.extract(trace, req);
                fx.update(trace, req);
                f
            })
            .collect()
    }

    /// Fold the request into the running state (after extraction).
    pub fn update(&mut self, trace: &Trace, req: &Request) {
        let meta = trace.photo(req.object);
        let entry = &mut self.owner_views[meta.owner.0 as usize];
        if self.last_access[req.object.0 as usize] == u64::MAX {
            entry.1 += 1; // first sighting of this photo
        }
        entry.0 += 1;
        self.last_access[req.object.0 as usize] = req.ts;
        self.window.push_back(req.ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otae_trace::{ObjectId, Owner, OwnerId, PhotoMeta, PhotoType, Terminal};

    fn toy_trace() -> Trace {
        Trace {
            requests: vec![],
            meta: vec![
                PhotoMeta {
                    owner: OwnerId(0),
                    ptype: PhotoType::L5,
                    size: 32 * 1024,
                    upload_ts: 0,
                },
                PhotoMeta {
                    owner: OwnerId(0),
                    ptype: PhotoType::A0,
                    size: 4 * 1024,
                    upload_ts: -86_400,
                },
            ],
            owners: vec![Owner { activity: 0.9, active_friends: 42 }],
        }
    }

    fn req(ts: u64, obj: u32, terminal: Terminal) -> Request {
        Request { ts, object: ObjectId(obj), terminal }
    }

    #[test]
    fn static_features_come_from_metadata() {
        let t = toy_trace();
        let mut fx = FeatureExtractor::new(&t);
        let f = fx.extract(&t, &req(7_200, 0, Terminal::Mobile));
        assert_eq!(f[1], 42.0); // active friends
        assert_eq!(f[2], PhotoType::L5.code() as f32);
        assert_eq!(f[3], 32.0); // KiB
        assert_eq!(f[4], 7_200.0 / 600.0); // age in 10-min units
        assert_eq!(f[6], 1.0); // mobile
        assert_eq!(f[8], 2.0); // 02:00
    }

    #[test]
    fn recency_falls_back_to_age_for_unseen_objects() {
        let t = toy_trace();
        let mut fx = FeatureExtractor::new(&t);
        let f = fx.extract(&t, &req(3_000, 0, Terminal::Pc));
        assert_eq!(f[5], f[4], "unseen object: recency = age");
    }

    #[test]
    fn recency_tracks_last_access_after_update() {
        let t = toy_trace();
        let mut fx = FeatureExtractor::new(&t);
        let r1 = req(1_000, 0, Terminal::Pc);
        fx.extract(&t, &r1);
        fx.update(&t, &r1);
        let f = fx.extract(&t, &req(1_600, 0, Terminal::Pc));
        assert_eq!(f[5], 600.0 / 600.0);
    }

    #[test]
    fn avg_views_counts_distinct_photos() {
        let t = toy_trace();
        let mut fx = FeatureExtractor::new(&t);
        // Object 0 viewed twice, object 1 once: owner avg = 3 views / 2 photos.
        for r in [req(10, 0, Terminal::Pc), req(20, 0, Terminal::Pc), req(30, 1, Terminal::Pc)] {
            fx.extract(&t, &r);
            fx.update(&t, &r);
        }
        let f = fx.extract(&t, &req(40, 0, Terminal::Pc));
        assert!((f[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn recent_requests_window_slides() {
        let t = toy_trace();
        let mut fx = FeatureExtractor::new(&t);
        for ts in [0u64, 10, 20] {
            let r = req(ts, 0, Terminal::Pc);
            fx.extract(&t, &r);
            fx.update(&t, &r);
        }
        // At ts = 50 all three are within 60 s.
        assert_eq!(fx.extract(&t, &req(50, 1, Terminal::Pc))[7], 3.0);
        // At ts = 65 the ts = 0 request has aged out.
        assert_eq!(fx.extract(&t, &req(65, 1, Terminal::Pc))[7], 2.0);
    }

    #[test]
    fn feature_count_matches_names() {
        let t = toy_trace();
        let mut fx = FeatureExtractor::new(&t);
        let f = fx.extract(&t, &req(0, 0, Terminal::Pc));
        assert_eq!(f.len(), FEATURE_NAMES.len());
        assert_eq!(f.len(), N_FEATURES);
    }

    #[test]
    fn negative_upload_backlog_has_large_age() {
        let t = toy_trace();
        let mut fx = FeatureExtractor::new(&t);
        let f = fx.extract(&t, &req(0, 1, Terminal::Pc));
        assert_eq!(f[4], 86_400.0 / 600.0);
    }
}
