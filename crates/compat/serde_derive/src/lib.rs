//! No-op `Serialize` / `Deserialize` derives, which nothing in the workspace uses any more.
//!
//! The types once carried these derives for a real `serde` that no offline build can fetch;
//! the JSON codec in `crates/compat/serde` was always the serializer.  The crate stays only
//! because dropping it, and the `serde` shim's dependency edge on it, rewrites
//! `perfbench/Cargo.lock`, which changes only together with the benchmark.  The next change
//! to the benchmark deletes both.

use proc_macro::TokenStream;

/// No-op `Serialize` derive: accepts any item, emits no code.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive: accepts any item, emits no code.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
