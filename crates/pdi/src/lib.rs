//! `pdi` — a PDI-style data interface.
//!
//! The paper keeps simulation code decoupled from data handling through the
//! PDI data interface ([Roussel et al. 2017]): the miniapp only *exposes*
//! named buffers and raises *events*; plugins configured in a YAML file decide
//! what happens to the data (ship it to Dask, write it to disk, ignore it).
//!
//! This crate reproduces that architecture:
//!
//! * [`yaml`] — a small YAML-subset parser for the plugin configuration
//!   (block maps, block lists, scalars, comments — everything Listing 1 of
//!   the paper uses),
//! * [`expr`] — the `$`-expression language used inside the config
//!   (`'$cfg.loc[0] * ($rank % $cfg.proc[0])'` …),
//! * [`store`] — the typed value store holding exposed metadata and data,
//! * [`plugin`] — the [`plugin::Plugin`] trait plus [`Pdi`], the per-rank
//!   instance that dispatches `share`/`event` callbacks to plugins.
//!
//! The deisa plugin itself lives in the `deisa-core` crate (it needs the
//! bridge); a file-writing plugin lives in `heat2d` (post-hoc path).

#![forbid(unsafe_code)]

pub mod expr;
pub mod plugin;
pub mod store;
pub mod yaml;

pub use expr::{eval_expr, ExprError};
pub use plugin::{Pdi, PdiError, Plugin};
pub use store::{Store, Value};
pub use yaml::{parse_yaml, Yaml, YamlError};
