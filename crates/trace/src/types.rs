//! Core data model: objects (photos), owners, requests, and the trace itself.

/// Identifier of a photo object. Indexes into [`Trace::meta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

/// Identifier of a photo owner (a QQ user). Indexes into [`Trace::owners`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(pub u32);

/// The twelve photo types of §3.2.1: six resolutions (`a`,`b`,`c`,`m`,`l`,`o`)
/// crossed with two specifications (`0` = png, `5` = jpg).
///
/// The discriminant is the discretised value (1–12) that §3.2.3 feeds the
/// classifier, minus one (so it is a valid array index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PhotoType {
    /// Resolution `a` (smallest thumbnail), png.
    A0 = 0,
    /// Resolution `a`, jpg.
    A5 = 1,
    /// Resolution `b`, png.
    B0 = 2,
    /// Resolution `b`, jpg.
    B5 = 3,
    /// Resolution `c`, png.
    C0 = 4,
    /// Resolution `c`, jpg.
    C5 = 5,
    /// Resolution `m` (medium), png.
    M0 = 6,
    /// Resolution `m`, jpg.
    M5 = 7,
    /// Resolution `l` (large), png.
    L0 = 8,
    /// Resolution `l`, jpg — the dominant type (~45 % of requests).
    L5 = 9,
    /// Resolution `o` (original), png.
    O0 = 10,
    /// Resolution `o`, jpg.
    O5 = 11,
}

/// All twelve photo types in discriminant order.
pub const ALL_PHOTO_TYPES: [PhotoType; 12] = [
    PhotoType::A0,
    PhotoType::A5,
    PhotoType::B0,
    PhotoType::B5,
    PhotoType::C0,
    PhotoType::C5,
    PhotoType::M0,
    PhotoType::M5,
    PhotoType::L0,
    PhotoType::L5,
    PhotoType::O0,
    PhotoType::O5,
];

impl PhotoType {
    /// Discretised feature value per §3.2.3 (1–12).
    pub fn code(self) -> u8 {
        self as u8 + 1
    }

    /// Resolution rank: 0 = `a` (smallest) … 5 = `o` (original).
    pub fn resolution_rank(self) -> u8 {
        self as u8 / 2
    }

    /// True for png (`0`-suffixed) specifications.
    pub fn is_png(self) -> bool {
        (self as u8).is_multiple_of(2)
    }

    /// Construct from the discriminant (0–11). Panics if out of range.
    pub fn from_index(i: u8) -> Self {
        ALL_PHOTO_TYPES[i as usize]
    }

    /// Short label as used in the paper's Figure 3 (e.g. `"l5"`).
    pub fn label(self) -> &'static str {
        const LABELS: [&str; 12] =
            ["a0", "a5", "b0", "b5", "c0", "c5", "m0", "m5", "l0", "l5", "o0", "o5"];
        LABELS[self as usize]
    }
}

/// Terminal kind issuing a request (§3.2.1: PC = 0, mobile = 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Terminal {
    /// Personal computer (discretised to 0, §3.2.3).
    Pc = 0,
    /// Mobile device (discretised to 1).
    Mobile = 1,
}

/// Static per-photo metadata, known at upload time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhotoMeta {
    /// Owner of the photo.
    pub owner: OwnerId,
    /// Photo type (resolution × specification).
    pub ptype: PhotoType,
    /// Size in bytes.
    pub size: u32,
    /// Upload timestamp in seconds relative to trace start (may be negative
    /// for photos uploaded before the observation window).
    pub upload_ts: i64,
}

/// Per-owner ground-truth social state used by the generator. The *observable*
/// social features (active friends, average views) are derived from this plus
/// online counting; see `otae-core`'s feature extractor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Owner {
    /// Latent social activity in `[0, 1]`; drives both the number of active
    /// friends and how often this owner's photos are viewed.
    pub activity: f32,
    /// Number of users who interacted with this owner recently (§3.2.1,
    /// "active friends").
    pub active_friends: u32,
}

/// One access in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Timestamp in seconds since trace start.
    pub ts: u64,
    /// Accessed object.
    pub object: ObjectId,
    /// Requesting terminal kind.
    pub terminal: Terminal,
}

/// A complete trace: a time-ordered request stream plus object/owner metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Requests sorted by non-decreasing `ts`.
    pub requests: Vec<Request>,
    /// Photo metadata, indexed by [`ObjectId`].
    pub meta: Vec<PhotoMeta>,
    /// Owner metadata, indexed by [`OwnerId`].
    pub owners: Vec<Owner>,
}

impl Trace {
    /// Metadata for an object.
    pub fn photo(&self, id: ObjectId) -> &PhotoMeta {
        &self.meta[id.0 as usize]
    }

    /// Owner record of an object.
    pub fn owner_of(&self, id: ObjectId) -> &Owner {
        &self.owners[self.photo(id).owner.0 as usize]
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total bytes across all requests (each access counts its object size).
    pub fn total_accessed_bytes(&self) -> u64 {
        self.requests.iter().map(|r| self.photo(r.object).size as u64).sum()
    }

    /// Sum of sizes over *unique* objects that appear in the request stream.
    ///
    /// # Panics
    ///
    /// When a request names an object beyond [`Trace::meta`].
    pub fn unique_bytes(&self) -> u64 {
        self.requested_objects().bytes
    }

    /// Mean object size (bytes) over unique accessed objects; 0 when no
    /// object is requested.
    ///
    /// # Panics
    ///
    /// When a request names an object beyond [`Trace::meta`].
    pub fn avg_object_size(&self) -> f64 {
        self.requested_objects().mean_size()
    }

    /// The distinct requested objects: one bit per request, then
    /// [`Trace::tally_marked`].
    fn requested_objects(&self) -> ObjectTally {
        let mut seen = vec![0u64; self.meta.len().div_ceil(64)];
        for (i, r) in self.requests.iter().enumerate() {
            let id = r.object.0 as usize;
            assert!(id < self.meta.len(), "request {i} names object {id} beyond the trace's meta");
            seen[id / 64] |= 1 << (id % 64);
        }
        self.tally_marked(&seen)
    }

    /// Count and total size of the objects marked in `seen` (bit `id % 64`
    /// of word `id / 64`), summed in one sequential sweep of [`Trace::meta`]
    /// over the set bits.
    ///
    /// # Panics
    ///
    /// When a bit beyond `meta` is set.
    pub fn tally_marked(&self, seen: &[u64]) -> ObjectTally {
        let mut tally = ObjectTally::default();
        for (w, &word) in seen.iter().enumerate() {
            let mut bits = word;
            tally.count += u64::from(bits.count_ones());
            while bits != 0 {
                tally.bytes += u64::from(self.meta[w * 64 + bits.trailing_zeros() as usize].size);
                bits &= bits - 1;
            }
        }
        tally
    }

    /// Asserts the invariant that requests are time-ordered. Used by tests
    /// and by the codec after reading external data.
    pub fn is_time_ordered(&self) -> bool {
        self.requests.windows(2).all(|w| w[0].ts <= w[1].ts)
    }
}

/// A set of distinct objects: how many, and their total size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectTally {
    /// Distinct objects.
    pub count: u64,
    /// Sum of their sizes in bytes.
    pub bytes: u64,
}

impl ObjectTally {
    /// Mean object size in bytes; 0 for no objects.
    pub fn mean_size(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.bytes as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photo_type_codes_are_one_based_and_distinct() {
        let codes: Vec<u8> = ALL_PHOTO_TYPES.iter().map(|t| t.code()).collect();
        assert_eq!(codes, (1..=12).collect::<Vec<u8>>());
    }

    #[test]
    fn photo_type_resolution_ranks() {
        assert_eq!(PhotoType::A0.resolution_rank(), 0);
        assert_eq!(PhotoType::A5.resolution_rank(), 0);
        assert_eq!(PhotoType::L5.resolution_rank(), 4);
        assert_eq!(PhotoType::O0.resolution_rank(), 5);
    }

    #[test]
    fn photo_type_specification() {
        assert!(PhotoType::A0.is_png());
        assert!(!PhotoType::A5.is_png());
        assert!(PhotoType::L0.is_png());
        assert!(!PhotoType::L5.is_png());
    }

    #[test]
    fn photo_type_labels_round_trip() {
        for (i, t) in ALL_PHOTO_TYPES.iter().enumerate() {
            assert_eq!(PhotoType::from_index(i as u8), *t);
            assert_eq!(t.label().len(), 2);
        }
    }

    #[test]
    fn trace_byte_accounting() {
        let trace = Trace {
            requests: vec![
                Request { ts: 0, object: ObjectId(0), terminal: Terminal::Pc },
                Request { ts: 1, object: ObjectId(1), terminal: Terminal::Mobile },
                Request { ts: 2, object: ObjectId(0), terminal: Terminal::Pc },
            ],
            meta: vec![
                PhotoMeta { owner: OwnerId(0), ptype: PhotoType::L5, size: 100, upload_ts: 0 },
                PhotoMeta { owner: OwnerId(0), ptype: PhotoType::A0, size: 50, upload_ts: 0 },
            ],
            owners: vec![Owner { activity: 0.5, active_friends: 3 }],
        };
        assert_eq!(trace.total_accessed_bytes(), 250);
        assert_eq!(trace.unique_bytes(), 150);
        assert!((trace.avg_object_size() - 75.0).abs() < 1e-9);
        assert!(trace.is_time_ordered());
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn empty_trace_avg_size_is_zero() {
        let trace = Trace::default();
        assert_eq!(trace.avg_object_size(), 0.0);
        assert!(trace.is_empty());
        assert!(trace.is_time_ordered());
    }
}
