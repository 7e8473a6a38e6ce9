//! # ic-versioning — data-versioning substrate
//!
//! Version operations (shuffle, row removal, column removal), the
//! line-diff baseline (Myers LCS, as computed by the `diff` command-line
//! tool), and the comparison harness behind the paper's Table 7: the
//! signature instance match recovers tuple correspondences that `diff`
//! structurally cannot.

#![warn(missing_docs)]

pub mod compare;
pub mod diff;
pub mod history;
pub mod incremental;
pub mod lake;
pub mod ops;

pub use compare::{compare_versions, MatchCounts, VersionComparison};
pub use diff::{diff_lines, diff_versions, serialize_instance_lines, serialize_lines, DiffStats};
pub use history::{find_endpoints, reconstruct_chain, similarity_matrix};
pub use incremental::instance_delta;
pub use lake::{
    find_duplicate_groups, find_duplicate_groups_shared, rank_by_similarity, table_similarity,
    LakeTable,
};
pub use ops::{remove_rows, shuffle_rows, Variant, Version};
