//! Functional DReX device model.
//!
//! [`DrexDevice`] stores Key Sign Objects, Key Objects, and Value Objects per
//! `(user, layer, kv_head)` — the paper's per-head vector databases — and
//! executes sparse-attention offloads with the exact filter → score → rank
//! semantics of the hardware, returning both the retrieved top-k results and
//! a timing record from the DCC/NMA model.
//!
//! Keys are stored at BF16 precision, matching the Key Object format; scores
//! are therefore computed on BF16-rounded keys exactly as the NMA would.

use crate::dcc::{DccSim, HeadWork, RequestTiming};
use crate::descriptor::{RequestDescriptor, ResponseDescriptor, TopHit};
use crate::layout::{ObjectFootprint, UserPartition, MAX_CONTEXT_SLICE_KEYS};
use crate::offload::{DrexParams, HeadOffloadSpec};
use crate::response_buffers::ResponseBufferTable;
use longsight_core::{
    filter_block_packed, ItqRotation, RotationTable, ThresholdTable, PFU_BLOCK_KEYS,
};
use longsight_cxl::CxlLink;
use longsight_dram::Geometry;
use longsight_faults::{domain, FaultError, FaultInjector};
use longsight_tensor::{quantize_bf16_in_place, vecops, FlatVecs, SignArena, TopK};

/// Errors returned by device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The device is out of memory capacity.
    CapacityExceeded {
        /// Bytes requested beyond what remains.
        needed: usize,
        /// Bytes remaining.
        available: usize,
    },
    /// Referenced user was never registered.
    UnknownUser(u32),
    /// The offload's timing workload is inconsistent (e.g. `k` beyond the
    /// hardware top-k bound).
    InvalidOffload(FaultError),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::CapacityExceeded { needed, available } => write!(
                f,
                "device capacity exceeded: need {needed} bytes, {available} available"
            ),
            DeviceError::UnknownUser(u) => write!(f, "unknown user id {u}"),
            DeviceError::InvalidOffload(e) => write!(f, "invalid offload: {e}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Per-head storage: sign objects, BF16 keys, BF16 values.
#[derive(Debug, Clone)]
struct HeadStore {
    signs: SignArena,
    keys: FlatVecs,
    values: FlatVecs,
}

impl HeadStore {
    fn new(dim: usize) -> Self {
        Self {
            signs: SignArena::new(dim),
            keys: FlatVecs::new(dim),
            values: FlatVecs::new(dim),
        }
    }
}

/// Per-user context storage.
#[derive(Debug, Clone)]
struct UserStore {
    heads: Vec<HeadStore>,
}

/// The functional + timing DReX device.
#[derive(Debug, Clone)]
pub struct DrexDevice {
    geometry: Geometry,
    layers: usize,
    kv_heads: usize,
    head_dim: usize,
    thresholds: ThresholdTable,
    rotations: RotationTable,
    users: Vec<UserStore>,
    dcc: DccSim,
    buffers: ResponseBufferTable,
    bytes_used: usize,
}

/// Result of one offload: the response descriptor plus its timing.
#[derive(Debug, Clone)]
pub struct OffloadOutcome {
    /// Retrieved top-k hits per head per query.
    pub response: ResponseDescriptor,
    /// DCC/NMA/CXL timing.
    pub timing: RequestTiming,
    /// True survivors dropped by injected PFU bitmap corruption (recall
    /// loss); zero on the fault-free path.
    pub false_negatives: usize,
    /// Spurious survivors admitted by injected corruption (scored and
    /// usually ranked out); zero on the fault-free path.
    pub false_positives: usize,
}

impl DrexDevice {
    /// Creates a device for a model shape.
    ///
    /// # Panics
    ///
    /// Panics if the threshold table shape disagrees with `layers`/`kv_heads`.
    pub fn new(
        params: DrexParams,
        link: CxlLink,
        geometry: Geometry,
        thresholds: ThresholdTable,
        rotations: RotationTable,
        head_dim: usize,
    ) -> Self {
        let layers = thresholds.layers();
        let kv_heads = thresholds.kv_heads();
        let packages = geometry.packages;
        Self {
            geometry,
            layers,
            kv_heads,
            head_dim,
            thresholds,
            rotations,
            users: Vec::new(),
            dcc: DccSim::new(params, link, packages),
            buffers: ResponseBufferTable::new(),
            bytes_used: 0,
        }
    }

    /// Registers a new user, allocating its DCC Response Buffer, and returns
    /// its ID.
    ///
    /// # Panics
    ///
    /// Panics beyond 512 concurrent users (the Response Buffer / Polling
    /// Register capacity, §7.2).
    pub fn register_user(&mut self) -> u32 {
        let id = self.users.len() as u32;
        self.buffers
            .map_user(id)
            .expect("at most 512 concurrent users (Response Buffer capacity)");
        self.users.push(UserStore {
            heads: (0..self.layers * self.kv_heads)
                .map(|_| HeadStore::new(self.head_dim))
                .collect(),
        });
        id
    }

    /// The DCC response-buffer table (CAM + Polling Register).
    pub fn response_buffers(&self) -> &ResponseBufferTable {
        &self.buffers
    }

    /// Bytes of device memory in use.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.geometry.total_bytes()
    }

    /// Number of keys stored for `(user, layer, kv_head)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn stored_keys(&self, user: u32, layer: usize, kv_head: usize) -> usize {
        self.users[user as usize].heads[layer * self.kv_heads + kv_head]
            .keys
            .len()
    }

    /// Reads a stored value vector (the GPU-side response read).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn value(&self, user: u32, layer: usize, kv_head: usize, index: usize) -> &[f32] {
        self.users[user as usize].heads[layer * self.kv_heads + kv_head]
            .values
            .get(index)
    }

    /// Writes a block of KV pairs for one head (the GPU flushes the staging
    /// window in groups of 128, §6). Keys/values are rounded to BF16; the
    /// Key Sign Object is built from the ITQ-rotated keys.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::CapacityExceeded`] when the write would exceed
    /// the 512 GB device, [`DeviceError::UnknownUser`] for unregistered ids.
    ///
    /// # Panics
    ///
    /// Panics if any vector has the wrong dimension or `keys`/`values`
    /// lengths differ.
    pub fn write_kv_block(
        &mut self,
        user: u32,
        layer: usize,
        kv_head: usize,
        keys: &[Vec<f32>],
        values: &[Vec<f32>],
    ) -> Result<(), DeviceError> {
        assert_eq!(keys.len(), values.len(), "key/value count mismatch");
        if user as usize >= self.users.len() {
            return Err(DeviceError::UnknownUser(user));
        }
        let add = ObjectFootprint::for_keys(keys.len(), self.head_dim).total();
        if self.bytes_used + add > self.capacity() {
            return Err(DeviceError::CapacityExceeded {
                needed: add,
                available: self.capacity() - self.bytes_used,
            });
        }
        let rotation = self.rotations.get(layer, kv_head).clone();
        let store = &mut self.users[user as usize].heads[layer * self.kv_heads + kv_head];
        for (k, v) in keys.iter().zip(values) {
            let mut kq = k.clone();
            quantize_bf16_in_place(&mut kq);
            let mut vq = v.clone();
            quantize_bf16_in_place(&mut vq);
            rotation.signs_into(&kq, &mut store.signs);
            store.keys.push(&kq);
            store.values.push(&vq);
        }
        self.bytes_used += add;
        Ok(())
    }

    /// Executes one sparse-attention offload: SCF filter, full-precision
    /// scoring, per-query top-k — over all KV heads of `layer` for `user`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownUser`] for unregistered users and
    /// [`DeviceError::InvalidOffload`] when `k` exceeds the hardware bound.
    ///
    /// # Panics
    ///
    /// Panics if `request.queries` does not have one group per KV head or a
    /// query has the wrong dimension.
    pub fn offload(
        &mut self,
        request: &RequestDescriptor,
        k: usize,
        arrival_ns: f64,
    ) -> Result<OffloadOutcome, DeviceError> {
        self.offload_with_faults(request, k, arrival_ns, &FaultInjector::disabled())
    }

    /// [`DrexDevice::offload`] under fault injection: PFU bitmap bit-flips
    /// corrupt the *functional* filter decisions — a flipped survivor is
    /// dropped before scoring (a false negative that costs recall), a
    /// flipped non-survivor is fetched and scored (a false positive that
    /// costs time and is usually ranked out). Flip decisions derive from
    /// `(inj.seed, user, layer, kv_head, key index)` alone, so the corrupted
    /// result is identical at any thread count; with a disabled injector
    /// this is exactly [`DrexDevice::offload`].
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownUser`] for unregistered users and
    /// [`DeviceError::InvalidOffload`] when `k` exceeds the hardware bound.
    ///
    /// # Panics
    ///
    /// Panics if `request.queries` does not have one group per KV head or a
    /// query has the wrong dimension.
    pub fn offload_with_faults(
        &mut self,
        request: &RequestDescriptor,
        k: usize,
        arrival_ns: f64,
        inj: &FaultInjector,
    ) -> Result<OffloadOutcome, DeviceError> {
        if request.user as usize >= self.users.len() {
            return Err(DeviceError::UnknownUser(request.user));
        }
        assert_eq!(
            request.queries.len(),
            self.kv_heads,
            "one query group per KV head required"
        );
        let layer = request.layer as usize;
        let user = &self.users[request.user as usize];
        let kv_heads = self.kv_heads;
        let layers = self.layers;
        let head_dim = self.head_dim;
        let geometry = &self.geometry;
        let rotations = &self.rotations;
        let thresholds = &self.thresholds;

        // Each KV head filters/scores/ranks against its own store — on the
        // real device these run on distinct NMAs concurrently. The parallel
        // map keeps results in head order, so response hits and the timing
        // workload are bit-identical to the serial loop.
        let per_head = longsight_exec::deterministic_map(&request.queries, |kv_head, group| {
            let store = &user.heads[layer * kv_heads + kv_head];
            let rotation: &ItqRotation = rotations.get(layer, kv_head);
            let threshold = thresholds.get(layer, kv_head);
            let n = store.keys.len();

            // Injected PFU bitmap corruption: one deterministic draw decides
            // whether this head's bitmap is corrupted, then a fixed per-index
            // draw picks the flipped filter decisions. The flips apply to the
            // shared bitmap, i.e. to every query in the group alike.
            let pfu_stream = longsight_faults::stream(
                domain::PFU,
                request.user as u64,
                layer as u64,
                kv_head as u64,
            );
            let flips: Option<Vec<bool>> = if inj.is_enabled()
                && inj.profile.bitflip_rate > 0.0
                && inj.uniform(pfu_stream, 0) < inj.profile.bitflip_rate
            {
                let frac = inj.profile.bitflip_flip_fraction;
                Some(
                    (0..n)
                        .map(|i| inj.uniform(pfu_stream, 1 + i as u64) < frac)
                        .collect(),
                )
            } else {
                None
            };
            let mut false_negatives = 0usize;
            let mut false_positives = 0usize;

            let mut per_query = Vec::with_capacity(group.len());
            // Union of surviving keys across the group: what the hardware
            // actually fetches (the PFU produces one bitmap per block for
            // the whole query batch).
            let mut union_survivors = 0usize;
            let mut union_mask = vec![false; n];
            for q in group {
                assert_eq!(q.len(), head_dim, "query dimension mismatch");
                let q_signs = rotation.signs(q);
                let mut top = TopK::new(k);
                // One PFU epoch per 128-key block off the packed arena; the
                // fault-injected flips are applied to the resulting bitmap
                // per key, exactly as the per-key scan counted them.
                let mut block = 0usize;
                while block < n {
                    let block_end = (block + PFU_BLOCK_KEYS).min(n);
                    let bitmap =
                        filter_block_packed(&q_signs, &store.signs, block..block_end, threshold);
                    for i in block..block_end {
                        let mut pass = bitmap >> (i - block) & 1 == 1;
                        if let Some(fl) = &flips {
                            if fl[i] {
                                if pass {
                                    false_negatives += 1;
                                } else {
                                    false_positives += 1;
                                }
                                pass = !pass;
                            }
                        }
                        if pass {
                            if !union_mask[i] {
                                union_mask[i] = true;
                                union_survivors += 1;
                            }
                            let s = vecops::dot(q, store.keys.get(i));
                            top.push(s, i);
                        }
                    }
                    block = block_end;
                }
                per_query.push(
                    top.into_sorted_vec()
                        .into_iter()
                        .map(|s| TopHit {
                            index: s.index,
                            score: s.score,
                        })
                        .collect::<Vec<_>>(),
                );
            }

            // Timing workload for this head.
            let plan = UserPartition::plan(
                geometry,
                kv_heads,
                layers,
                head_dim,
                n,
                request.user as usize * kv_heads,
            );
            let slice_packages: Vec<usize> =
                plan.slices[kv_head].iter().map(|s| s.package).collect();
            let work = HeadWork {
                spec: HeadOffloadSpec {
                    context_len: n,
                    head_dim,
                    queries: group.len(),
                    k,
                    survivors: union_survivors,
                },
                slice_packages: if n == 0 { vec![0] } else { slice_packages },
            };
            (per_query, work, false_negatives, false_positives)
        });
        let mut hits = Vec::with_capacity(kv_heads);
        let mut head_work = Vec::with_capacity(kv_heads);
        let mut false_negatives = 0usize;
        let mut false_positives = 0usize;
        for (per_query, work, fneg, fpos) in per_head {
            hits.push(per_query);
            head_work.push(work);
            false_negatives += fneg;
            false_positives += fpos;
        }

        let response = ResponseDescriptor {
            hits,
            head_dim: self.head_dim,
        };
        let timing = self
            .dcc
            .submit(arrival_ns, &head_work, request.bytes(), response.bytes())
            .map_err(DeviceError::InvalidOffload)?;
        // Completion posted to the user's Response Buffer; the GPU's poll
        // (already folded into `timing.observed_ns`) clears it.
        self.buffers
            .post_completion(request.user)
            .expect("registered users have buffers");
        Ok(OffloadOutcome {
            response,
            timing,
            false_negatives,
            false_positives,
        })
    }

    /// Maximum context slice size (re-exported convenience).
    pub const MAX_SLICE_KEYS: usize = MAX_CONTEXT_SLICE_KEYS;
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsight_tensor::{SignBits, SimRng};

    fn device(threshold: u32) -> DrexDevice {
        DrexDevice::new(
            DrexParams::paper(),
            CxlLink::pcie5_x16(),
            Geometry::drex(),
            ThresholdTable::uniform(1, 2, threshold),
            RotationTable::identity(1, 2, 16),
            16,
        )
    }

    fn fill(dev: &mut DrexDevice, user: u32, n: usize, rng: &mut SimRng) {
        for head in 0..2 {
            let keys: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_vec(16)).collect();
            let vals: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_vec(16)).collect();
            dev.write_kv_block(user, 0, head, &keys, &vals).unwrap();
        }
    }

    #[test]
    fn offload_matches_reference_pipeline() {
        let mut rng = SimRng::seed_from(1);
        let mut dev = device(6);
        let u = dev.register_user();
        fill(&mut dev, u, 300, &mut rng);

        let q = rng.normal_vec(16);
        let req = RequestDescriptor {
            user: u,
            layer: 0,
            queries: vec![vec![q.clone()], vec![q.clone()]],
        };
        let out = dev.offload(&req, 8, 0.0).unwrap();

        // Reference: same pipeline by hand for head 0 (BF16 keys, identity
        // rotation, threshold 6).
        let q_signs = SignBits::from_slice(&q);
        let mut expected = TopK::new(8);
        for i in 0..300 {
            // Reconstruct the BF16-rounded key through the device's store.
            let stored = dev.users[u as usize].heads[0].keys.get(i);
            if q_signs.concordance(&SignBits::from_slice(stored)) >= 6 {
                expected.push(vecops::dot(&q, stored), i);
            }
        }
        let want: Vec<usize> = expected.into_sorted_vec().iter().map(|s| s.index).collect();
        let got: Vec<usize> = out.response.hits[0][0].iter().map(|h| h.index).collect();
        assert_eq!(
            got, want,
            "device must match the reference pipeline exactly"
        );
        assert!(out.timing.observed_ns > 0.0);
    }

    #[test]
    fn threshold_zero_retrieves_global_topk() {
        let mut rng = SimRng::seed_from(2);
        let mut dev = device(0);
        let u = dev.register_user();
        fill(&mut dev, u, 200, &mut rng);
        let q = rng.normal_vec(16);
        let req = RequestDescriptor {
            user: u,
            layer: 0,
            queries: vec![vec![q.clone()], vec![q.clone()]],
        };
        let out = dev.offload(&req, 200, 0.0).unwrap();
        // k >= n and threshold 0: every key retrieved.
        assert_eq!(out.response.hits[0][0].len(), 200);
        // Scores descending.
        let s: Vec<f32> = out.response.hits[0][0].iter().map(|h| h.score).collect();
        assert!(s.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn injected_bitflips_corrupt_retrieval_deterministically() {
        use longsight_faults::{FaultInjector, FaultProfile};
        let mut rng = SimRng::seed_from(4);
        let mut dev = device(6);
        let u = dev.register_user();
        fill(&mut dev, u, 400, &mut rng);
        let q = rng.normal_vec(16);
        let req = RequestDescriptor {
            user: u,
            layer: 0,
            queries: vec![vec![q.clone()], vec![q.clone()]],
        };
        // Disabled injector reproduces the plain offload exactly.
        let plain = dev.clone().offload(&req, 16, 0.0).unwrap();
        let off = dev
            .clone()
            .offload_with_faults(&req, 16, 0.0, &FaultInjector::disabled())
            .unwrap();
        assert_eq!(off.response.hits, plain.response.hits);
        assert_eq!((off.false_negatives, off.false_positives), (0, 0));
        // A certain corruption with a large flip fraction changes results
        // and counts both error directions — identically across two runs.
        let inj = FaultInjector::new(
            FaultProfile {
                bitflip_rate: 1.0,
                bitflip_flip_fraction: 0.25,
                ..FaultProfile::disabled()
            },
            21,
        );
        let a = dev
            .clone()
            .offload_with_faults(&req, 16, 0.0, &inj)
            .unwrap();
        let b = dev
            .clone()
            .offload_with_faults(&req, 16, 0.0, &inj)
            .unwrap();
        assert_eq!(a.response.hits, b.response.hits);
        assert_eq!(
            (a.false_negatives, a.false_positives),
            (b.false_negatives, b.false_positives)
        );
        assert!(a.false_negatives + a.false_positives > 0);
        assert_ne!(
            a.response.hits, plain.response.hits,
            "a 25% flip fraction must perturb the top-k"
        );
    }

    #[test]
    fn unknown_user_is_an_error() {
        let mut dev = device(0);
        let req = RequestDescriptor {
            user: 9,
            layer: 0,
            queries: vec![vec![], vec![]],
        };
        assert_eq!(
            dev.offload(&req, 4, 0.0).unwrap_err(),
            DeviceError::UnknownUser(9)
        );
        assert!(dev.write_kv_block(3, 0, 0, &[], &[]).is_err());
    }

    #[test]
    fn k_beyond_the_hardware_bound_is_an_invalid_offload() {
        let mut dev = device(0);
        let mut rng = SimRng::seed_from(5);
        let u = dev.register_user();
        fill(&mut dev, u, 64, &mut rng);
        let q = rng.normal_vec(16);
        let req = RequestDescriptor {
            user: u,
            layer: 0,
            queries: vec![vec![q.clone()], vec![q]],
        };
        let k = DrexParams::paper().max_k + 1;
        assert!(matches!(
            dev.offload(&req, k, 0.0),
            Err(DeviceError::InvalidOffload(FaultError::InvalidSpec(_)))
        ));
    }

    #[test]
    fn capacity_accounting_rejects_overflow() {
        let mut dev = DrexDevice::new(
            DrexParams::paper(),
            CxlLink::pcie5_x16(),
            // A tiny 1-bank geometry to make overflow reachable.
            Geometry {
                packages: 1,
                channels: 1,
                banks: 1,
                rows: 2,
                cols: 64,
                col_bytes: 32,
            },
            ThresholdTable::zeros(1, 1),
            RotationTable::identity(1, 1, 16),
            16,
        );
        let u = dev.register_user();
        let keys: Vec<Vec<f32>> = (0..128).map(|_| vec![0.5; 16]).collect();
        let vals = keys.clone();
        // Capacity is 4 KiB; each 128-key block needs 128·(2+32+32) = 8.4 KB.
        let err = dev.write_kv_block(u, 0, 0, &keys, &vals).unwrap_err();
        assert!(matches!(err, DeviceError::CapacityExceeded { .. }));
    }

    #[test]
    fn values_round_trip_at_bf16_precision() {
        let mut dev = device(0);
        let u = dev.register_user();
        let k = vec![vec![0.123456f32; 16]];
        let v = vec![vec![1.0 + 1e-4f32; 16]];
        dev.write_kv_block(u, 0, 0, &k, &v).unwrap();
        // BF16 rounding: 1.0 + 1e-4 → 1.0.
        assert_eq!(dev.value(u, 0, 0, 0)[0], 1.0);
        assert_eq!(dev.stored_keys(u, 0, 0), 1);
    }
}
