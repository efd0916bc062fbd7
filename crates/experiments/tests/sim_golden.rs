//! Golden digests of `sim`: every architecture `--list-archs` prints,
//! run by the real binary.
//!
//! The figures pin most specs through `cpu_golden.rs`, but `rpt`,
//! `rpt:filtered` and `remap:*` appear in no figure. This suite pins
//! each spec's whole stdout (label, instructions, cycles, IPC) at
//! 20 000 events of the default workload. `gcc` triggers no remap at
//! that length, so the remap specs are also pinned on `tomcatv` and
//! `li`, where the OS loop moves pages; the `rpt` specs are pinned on
//! every workload. A change meant to be exact must keep every digest;
//! re-record one only for a change that means to alter that
//! architecture's timing.

use std::process::Command;

const EVENTS: &str = "20000";

/// 64-bit FNV-1a of `sim --arch <spec> --events 20000`'s stdout, in
/// `--list-archs` order.
const LISTED: [(&str, u64); 29] = [
    ("baseline", 0xfde5_8cf8_4c93_89a1),
    ("two-way", 0xa306_9e43_b732_f170),
    ("victim:traditional", 0x59be_2188_055d_6424),
    ("victim:swaps", 0xbe46_4ac1_c5d3_3286),
    ("victim:fills", 0xa7df_fcb2_6f9f_5725),
    ("victim:both", 0x1f3f_ca15_3d34_0278),
    ("prefetch:none", 0x55ce_cfe0_b1ad_ab4f),
    ("prefetch:in", 0x8601_dc26_7f9b_e9a9),
    ("prefetch:out", 0x56e4_e2a0_c73e_af84),
    ("prefetch:and", 0xeadb_a273_e4ea_d083),
    ("prefetch:or", 0x4f17_0616_d24b_6fa2),
    ("rpt", 0x6ee8_363b_16d1_caad),
    ("rpt:filtered", 0x5acf_b9a8_4cce_0aef),
    ("exclusion:mat", 0xfd09_7e0e_4570_6794),
    ("exclusion:conflict", 0x7068_ad63_05cd_1ce0),
    ("exclusion:conflict-history", 0x3129_91fc_f4b8_be5b),
    ("exclusion:capacity", 0x27c1_0348_48e6_0238),
    ("exclusion:capacity-history", 0x9f34_d1c3_3b95_f8e6),
    ("pseudo:lru", 0xe54b_43fe_a818_645c),
    ("pseudo:mct", 0xe5b9_11d3_a4dc_296e),
    ("remap:all", 0xd5cd_4a3c_a509_b30f),
    ("remap:conflict", 0x974d_dee5_d833_2c69),
    ("amb:vict", 0x3519_1818_b16b_ec7f),
    ("amb:pref", 0x8698_a4ed_8641_a77c),
    ("amb:excl", 0x5ee1_0779_81c6_3783),
    ("amb:victpref", 0x70e3_57ec_f87d_cfbf),
    ("amb:prefexcl", 0x11a8_d848_22ea_4535),
    ("amb:victexcl", 0x57ab_a0d2_e84b_bb45),
    ("amb:vicpreexc", 0x5515_ecc1_5d0c_7588),
];

/// The same digest of `sim --arch <spec> --workload <w> --events
/// 20000`, on workloads where the remap loop fires.
const REMAPPING: [(&str, &str, u64); 4] = [
    ("remap:all", "tomcatv", 0xed38_4ebe_2211_c8aa),
    ("remap:conflict", "tomcatv", 0x9636_417d_8d16_1804),
    ("remap:all", "li", 0x833c_f96a_3636_6eec),
    ("remap:conflict", "li", 0xa405_1f0f_c811_79e1),
];

/// The same digest for both stride-prefetcher specs on every
/// workload: no figure runs them, so this is their only pin beyond
/// `gcc`.
const STRIDE: [(&str, &str, u64); 36] = [
    ("rpt", "tomcatv", 0xa141_0aaa_5228_3b5a),
    ("rpt", "swim", 0x27ed_6ebd_d1fc_97a7),
    ("rpt", "su2cor", 0xe5d8_4eb8_a4e0_8ceb),
    ("rpt", "hydro2d", 0x4e8f_073f_03de_077d),
    ("rpt", "mgrid", 0x1eaf_dcdc_bfb4_61d3),
    ("rpt", "applu", 0x3015_89a0_6403_1bb4),
    ("rpt", "turb3d", 0x2059_2efd_5fc0_fe4e),
    ("rpt", "apsi", 0x4e5a_405c_0570_5302),
    ("rpt", "wave5", 0x1381_c914_ace8_cdec),
    ("rpt", "fpppp", 0xd123_9c9f_23c9_35f8),
    ("rpt", "go", 0x32d4_0ef2_104b_1f3e),
    ("rpt", "m88ksim", 0xe031_adaf_005b_0c6b),
    ("rpt", "gcc", 0x6ee8_363b_16d1_caad),
    ("rpt", "compress", 0x8219_0623_7363_f585),
    ("rpt", "li", 0x3b0d_17b5_a224_588f),
    ("rpt", "ijpeg", 0x2f7b_62ef_00f7_5d94),
    ("rpt", "perl", 0x8e8b_3286_2f1a_357a),
    ("rpt", "vortex", 0x61ef_aca4_a396_891d),
    ("rpt:filtered", "tomcatv", 0x8842_1297_2f0e_9e40),
    ("rpt:filtered", "swim", 0xb003_5ce1_83c4_d011),
    ("rpt:filtered", "su2cor", 0x6ed1_d09c_9808_89d9),
    ("rpt:filtered", "hydro2d", 0x2801_e494_423b_28c3),
    ("rpt:filtered", "mgrid", 0x5ea9_f432_9d04_4717),
    ("rpt:filtered", "applu", 0x5c00_8bbd_c142_3e1e),
    ("rpt:filtered", "turb3d", 0xcade_69ab_84e0_1d5c),
    ("rpt:filtered", "apsi", 0x5aad_9eeb_ccbe_ae00),
    ("rpt:filtered", "wave5", 0xb5bc_e3a1_19f8_36fe),
    ("rpt:filtered", "fpppp", 0x5d1a_0636_79d4_12de),
    ("rpt:filtered", "go", 0xeb2f_514c_084e_21ac),
    ("rpt:filtered", "m88ksim", 0x89e8_4058_f224_d3b1),
    ("rpt:filtered", "gcc", 0x5acf_b9a8_4cce_0aef),
    ("rpt:filtered", "compress", 0x3d9a_3f54_f804_5e67),
    ("rpt:filtered", "li", 0x1985_1339_67ce_4a21),
    ("rpt:filtered", "ijpeg", 0xdbe0_f36e_d028_0516),
    ("rpt:filtered", "perl", 0x5265_ec5f_fe29_833c),
    ("rpt:filtered", "vortex", 0xe0c3_7f5f_a316_4097),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sim(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(args)
        .output()
        .expect("spawn sim");
    assert!(
        out.status.success(),
        "sim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn check(args: &[&str], want: u64) -> Option<String> {
    let stdout = sim(args);
    let got = fnv1a(&stdout);
    (got != want).then(|| {
        format!(
            "sim {args:?} moved (digest {got:#018x}):\n{}",
            String::from_utf8_lossy(&stdout)
        )
    })
}

#[test]
fn every_listed_spec_matches_its_recorded_digest() {
    let listed = String::from_utf8(sim(&["--list-archs"])).expect("utf-8 spec list");
    let specs: Vec<&str> = listed.split_whitespace().collect();
    let pinned: Vec<&str> = LISTED.iter().map(|&(spec, _)| spec).collect();
    assert_eq!(specs, pinned, "`--list-archs` and the digest table differ");
    let moved: Vec<String> = LISTED
        .iter()
        .filter_map(|&(spec, want)| check(&["--arch", spec, "--events", EVENTS], want))
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

fn check_cells(cells: &[(&str, &str, u64)]) {
    let moved: Vec<String> = cells
        .iter()
        .filter_map(|&(spec, workload, want)| {
            check(
                &["--arch", spec, "--workload", workload, "--events", EVENTS],
                want,
            )
        })
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

#[test]
fn remapping_cells_match_their_recorded_digests() {
    check_cells(&REMAPPING);
}

#[test]
fn stride_prefetcher_matches_its_recorded_digests_on_every_workload() {
    check_cells(&STRIDE);
}
