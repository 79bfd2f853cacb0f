//! Model-vs-simulator agreement on both paper evaluation drives (the
//! mapping × backend differential matrix lives in `stack_matrix.rs`).

use multimap_conformance::assert_model_agreement;
use multimap_disksim::profiles;

#[test]
fn model_agrees_with_simulator_on_cheetah() {
    assert_model_agreement(&profiles::cheetah_36es());
}

#[test]
fn model_agrees_with_simulator_on_atlas() {
    assert_model_agreement(&profiles::atlas_10k_iii());
}

#[test]
fn model_agrees_with_simulator_on_small() {
    assert_model_agreement(&profiles::small());
}
