//! The baseline and state-of-the-art approaches of the paper's evaluation
//! (Section 6.1.2).
//!
//! - [`LineCell`] (`Line^C`) — extends a `Strudel^L` line prediction to
//!   every non-empty cell of the line;
//! - [`CrfLine`] (`CRF^L`) — Adelfio & Samet's conditional-random-field
//!   line classifier with logarithmic feature binning, without the
//!   stylistic features unavailable in CSV files;
//! - [`PytheasLine`] (`Pytheas^L`) — the fuzzy-rule table-discovery line
//!   classifier of Christodoulakis et al., restricted to the five classes
//!   it models (no `derived`);
//! - [`RnnCell`] (`RNN^C`) — the neural cell classifier of Ghasemi-Gol et
//!   al., reproduced as a cell-embedding + neighbour-context network (see
//!   DESIGN.md, substitution 2).

mod crf_line;
mod line_cell;
mod pytheas;
mod rnn_cell;

pub use crf_line::{CrfLine, CrfLineConfig};
pub use line_cell::LineCell;
pub use pytheas::{PytheasConfig, PytheasLine};
pub use rnn_cell::{RnnCell, RnnCellConfig};
