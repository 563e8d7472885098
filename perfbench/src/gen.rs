//! Seeded op streams. The program under test receives only what these
//! generate; the same seed gives the same stream.

use pgas_des::rng::{splitmix64, Rng};

/// RMA size classes of `rma_smp`: mostly 8 B, some 1 KiB, a few 64 KiB.
pub const RMA_SIZES: [usize; 3] = [8, 1024, 64 << 10];
/// Slots per size class in the target's segment.
pub const RMA_SLOTS: [usize; 3] = [256, 64, 4];
/// Size-class weights in percent: one concrete reading of "mostly, some,
/// a few", not a measured mix.
const RMA_WEIGHTS: [usize; 3] = [80, 18, 2];

/// The slot one `rma_smp` op writes and reads back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RmaOp {
    pub class: usize,
    pub slot: usize,
}

/// Stream of [`RmaOp`]s, sizes by [`RMA_WEIGHTS`].
pub struct RmaGen(Rng);

impl RmaGen {
    pub fn new(seed: u64) -> RmaGen {
        RmaGen(Rng::new(splitmix64(seed ^ 0x524d_4100)))
    }

    pub fn next_op(&mut self) -> RmaOp {
        let class = pick(&mut self.0, &RMA_WEIGHTS);
        let slot = self.0.gen_range(RMA_SLOTS[class]);
        RmaOp { class, slot }
    }
}

fn pick(rng: &mut Rng, weights: &[usize]) -> usize {
    let mut x = rng.gen_range(weights.iter().sum());
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    unreachable!("weights sum covers every draw")
}

/// The bytes of value `version` written to an RMA slot or a DHT key:
/// eight-byte words derived from `(id, version)`, so a stale or torn value
/// fails [`value_matches`].
pub fn fill_value(buf: &mut [u8], id: u64, version: u64) {
    let base = splitmix64(id ^ version.rotate_left(29));
    for (i, w) in buf.chunks_mut(8).enumerate() {
        let x = base.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        w.copy_from_slice(&x.to_le_bytes()[..w.len()]);
    }
}

/// A fresh value of `len` bytes (see [`fill_value`]).
pub fn make_value(id: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill_value(&mut v, id, version);
    v
}

/// Does `buf` hold exactly the value [`fill_value`] writes for
/// `(id, version)` at `len` bytes?
pub fn value_matches(buf: &[u8], id: u64, version: u64, len: usize) -> bool {
    if buf.len() != len {
        return false;
    }
    let base = splitmix64(id ^ version.rotate_left(29));
    buf.chunks(8).enumerate().all(|(i, w)| {
        let x = base.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        w == &x.to_le_bytes()[..w.len()]
    })
}

/// DHT op kinds of `dht_smp` / `dht_proc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DhtKind {
    /// `pgas_dht::insert_rpc`.
    InsertRpc,
    /// `pgas_dht::insert` (the RMA variant: `make_lz` rpc, then `rput`).
    InsertRma,
    /// `pgas_dht::find_rpc`.
    FindRpc,
    /// `pgas_dht::find` (rpc, then `rget`).
    FindRma,
    /// `upcxx::rpc_ff` of an insert into the owner's map.
    InsertFf,
}

impl DhtKind {
    const ALL: [DhtKind; 5] = [
        DhtKind::InsertRpc,
        DhtKind::InsertRma,
        DhtKind::FindRpc,
        DhtKind::FindRma,
        DhtKind::InsertFf,
    ];

    /// Key class: the RPC variant, the RMA variant and `rpc_ff` inserts
    /// each own a disjoint key range (the two table variants keep separate
    /// maps, and `rpc_ff` inserts complete out of band).
    pub fn class(self) -> u64 {
        match self {
            DhtKind::InsertRpc | DhtKind::FindRpc => 0,
            DhtKind::InsertRma | DhtKind::FindRma => 1,
            DhtKind::InsertFf => 2,
        }
    }
}

/// Keys per rank per class: bounded and reused.
pub const DHT_KEYS: u64 = 1024;
/// Ops issued back to back before the caller blocks on them.
pub const DHT_WINDOW: usize = 8;
/// Value sizes: mostly 64 B, and one insert in ten of 8 KiB, the smallest
/// power of two above the proc conduit's 4 KiB eager limit. The one in ten
/// is a concrete reading of "a minority", not a measured mix.
pub const DHT_SMALL: usize = 64;
pub const DHT_LARGE: usize = 8 << 10;

/// Key `idx` of `class` in `rank`'s own range.
pub fn dht_key(rank: usize, class: u64, idx: u64) -> u64 {
    (rank as u64) << 40 | class << 32 | idx
}

/// Index of a key within its rank's class range.
pub fn dht_idx(key: u64) -> usize {
    (key & 0xffff_ffff) as usize
}

/// Value size of an `rpc_ff` key. Fixed per key, so an `rpc_ff` insert is
/// idempotent and its value checkable whatever order copies arrive in.
pub fn ff_len(key: u64) -> usize {
    if splitmix64(key).is_multiple_of(10) {
        DHT_LARGE
    } else {
        DHT_SMALL
    }
}

/// One DHT op. `len` is the value size of an insert (0 for finds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DhtOp {
    pub kind: DhtKind,
    pub key: u64,
    pub len: usize,
}

/// Per-rank stream of DHT windows. Keys within one window are distinct,
/// so no two ops of a window race on a key.
pub struct DhtGen {
    rng: Rng,
    rank: usize,
}

impl DhtGen {
    pub fn new(seed: u64, rank: usize) -> DhtGen {
        DhtGen {
            rng: Rng::new(splitmix64(seed ^ 0x4448_5400 ^ (rank as u64) << 48)),
            rank,
        }
    }

    pub fn next_window(&mut self) -> Vec<DhtOp> {
        let mut w: Vec<DhtOp> = Vec::with_capacity(DHT_WINDOW);
        while w.len() < DHT_WINDOW {
            // Equal shares: no measurement or source ranks one kind
            // above another.
            let kind = DhtKind::ALL[self.rng.gen_range(DhtKind::ALL.len())];
            let key = dht_key(
                self.rank,
                kind.class(),
                self.rng.gen_range(DHT_KEYS as usize) as u64,
            );
            let len = match kind {
                DhtKind::FindRpc | DhtKind::FindRma => 0,
                DhtKind::InsertFf => ff_len(key),
                _ if self.rng.gen_range(10) == 0 => DHT_LARGE,
                _ => DHT_SMALL,
            };
            if w.iter().all(|o| o.key != key) {
                w.push(DhtOp { kind, key, len });
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rma_stream_repeats_per_seed_and_differs_across_seeds() {
        let a: Vec<RmaOp> = (0..1000)
            .scan(RmaGen::new(1), |g, _| Some(g.next_op()))
            .collect();
        let b: Vec<RmaOp> = (0..1000)
            .scan(RmaGen::new(1), |g, _| Some(g.next_op()))
            .collect();
        let c: Vec<RmaOp> = (0..1000)
            .scan(RmaGen::new(2), |g, _| Some(g.next_op()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let big = a.iter().filter(|o| o.class == 2).count();
        let small = a.iter().filter(|o| o.class == 0).count();
        assert!(
            big < 60 && small > 700,
            "mostly 8 B, few 64 KiB: {small} {big}"
        );
        assert!(a.iter().all(|o| o.slot < RMA_SLOTS[o.class]));
    }

    #[test]
    fn dht_stream_repeats_per_seed_and_rank_and_differs_otherwise() {
        let take = |seed, rank| {
            let mut g = DhtGen::new(seed, rank);
            (0..200).flat_map(|_| g.next_window()).collect::<Vec<_>>()
        };
        assert_eq!(take(3, 0), take(3, 0));
        assert_ne!(take(3, 0), take(4, 0));
        assert_ne!(take(3, 0), take(3, 1));
        let ops = take(3, 1);
        assert!(
            ops.iter().all(|o| (o.key >> 40) as usize == 1),
            "own key range"
        );
        assert!(ops.iter().all(|o| (dht_idx(o.key) as u64) < DHT_KEYS));
        for kind in DhtKind::ALL {
            assert!(ops.iter().any(|o| o.kind == kind), "{kind:?} present");
        }
        let large = ops.iter().filter(|o| o.len == DHT_LARGE).count();
        let small = ops.iter().filter(|o| o.len == DHT_SMALL).count();
        assert!(
            large > 0 && small > 5 * large,
            "mostly 64 B: {small} vs {large}"
        );
        let mut g = DhtGen::new(9, 0);
        for _ in 0..100 {
            let w = g.next_window();
            assert_eq!(w.len(), DHT_WINDOW);
            for (i, a) in w.iter().enumerate() {
                assert!(
                    w[i + 1..].iter().all(|b| b.key != a.key),
                    "distinct keys in a window"
                );
            }
        }
    }

    #[test]
    fn values_detect_stale_versions_and_wrong_lengths() {
        let v = make_value(42, 7, 1027);
        assert!(value_matches(&v, 42, 7, 1027));
        assert!(!value_matches(&v, 42, 6, 1027));
        assert!(!value_matches(&v, 43, 7, 1027));
        assert!(!value_matches(&v[..1024], 42, 7, 1027));
        let mut w = v.clone();
        w[1026] ^= 1;
        assert!(!value_matches(&w, 42, 7, 1027));
        assert_eq!(ff_len(5), ff_len(5));
    }
}
