//! Experiment harnesses for the WearLock reproduction benchmarks:
//! one module per figure/table of the paper's evaluation section.
#![forbid(unsafe_code)]

pub mod fig1011;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig789;
pub mod fleet;
pub mod funnel;
pub mod report;
pub mod resilience;
pub mod table2;
