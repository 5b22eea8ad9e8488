//! Outside-in fleet benchmark for the CaTDet serving stack.
//!
//! Drives the public serving entry points (`serve_fleet`,
//! `serve_net_fleet_with_recorder`) on seeded workloads and reports
//! end-to-end metrics from untraced runs and per-layer metrics from
//! traced ones. Layers are measured from outside: a bench-owned factory
//! wraps every pipeline in a transparent stage tracer, a counting global
//! allocator tags allocations by layer, and layers the wrapper cannot
//! split are timed by calling their public functions directly.

pub mod alloc;
pub mod bench;
pub mod measure;
pub mod trace;
pub mod workload;
