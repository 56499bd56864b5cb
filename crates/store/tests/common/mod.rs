//! The reference recovery the library's is checked against.

pub mod reference;
