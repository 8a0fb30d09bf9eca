#![forbid(unsafe_code)]

pub use soteria_cfg as cfg;
