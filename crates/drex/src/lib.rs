//! The DReX compute-enabled CXL memory expander (paper §7), repurposed for
//! sparse attention.
//!
//! * [`layout`] — Key Blocks, Context Slices, Multi-Layer Context Slices,
//!   and User Partitions (§7.3), plus capacity planning,
//! * [`time_slice_offload`] / [`time_head_offload`] — PFU/NMA offload
//!   timing driven by the LPDDR5X simulator and the paper's RTL constants
//!   (§7.4, §8.2); one function per operation, with tracing as an optional
//!   argument and inconsistent specs as a typed
//!   [`FaultError`](longsight_faults::FaultError),
//! * [`DccSim`] — the DReX CXL Controller: request queue, NMA scheduling
//!   ([`DccSim::schedule_slices`]), per-request submission
//!   ([`DccSim::submit`]), response buffers, polling (§7.2),
//! * [`DrexDevice`] — the functional device: per-head vector databases with
//!   exact filter → score → rank semantics at BF16 precision; injected PFU
//!   bit-flips corrupt its filter decisions, and the corrupted survivor
//!   union is what [`DccSim::submit`] times,
//! * [`PowerModel`] — §9.4 power and area figures.
//!
//! # Example
//!
//! ```
//! use longsight_core::{RotationTable, ThresholdTable};
//! use longsight_cxl::CxlLink;
//! use longsight_dram::Geometry;
//! use longsight_drex::{DrexDevice, DrexParams, RequestDescriptor};
//!
//! let mut dev = DrexDevice::new(
//!     DrexParams::paper(),
//!     CxlLink::pcie5_x16(),
//!     Geometry::drex(),
//!     ThresholdTable::zeros(1, 1),
//!     RotationTable::identity(1, 1, 8),
//!     8,
//! );
//! let user = dev.register_user();
//! dev.write_kv_block(user, 0, 0, &[vec![1.0; 8]], &[vec![2.0; 8]])?;
//! let req = RequestDescriptor { user, layer: 0, queries: vec![vec![vec![1.0; 8]]] };
//! let out = dev.offload(&req, 4, 0.0)?;
//! assert_eq!(out.response.hits[0][0].len(), 1);
//! # Ok::<(), longsight_drex::DeviceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dcc;
mod descriptor;
mod device;
mod id_address;
pub mod layout;
mod offload;
mod power;
mod response_buffers;
pub mod spm;
mod write_path;

pub use dcc::{DccSim, HeadWork, RequestTiming, SpecSlotPool};
pub use descriptor::{
    RequestDescriptor, ResponseDescriptor, TopHit, POLLING_REGISTER_BITS, REQUEST_QUEUE_DEPTH,
};
pub use device::{DeviceError, DrexDevice, OffloadOutcome};
pub use id_address::IdAddress;
pub use offload::{
    slice_layout, time_head_offload, time_slice_offload, DrexParams, HeadOffloadSpec,
    HeadOffloadTiming, SliceWork,
};
pub use power::PowerModel;
pub use response_buffers::{BufferError, ResponseBufferTable};
pub use write_path::{sustained_ingest_tokens_per_sec, time_kv_block_write, KvWriteTiming};
