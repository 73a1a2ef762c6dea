//! Dynamic (run-time) predictors: Smith's simple schemes and the Yeh–Patt
//! two-level adaptive family.

mod counter;
mod gshare;
mod last_direction;
mod two_level;

pub use counter::SaturatingCounters;
pub use gshare::Gshare;
pub use last_direction::LastDirection;
pub use two_level::{PatternArrangement, RegisterArrangement, TwoLevel};
