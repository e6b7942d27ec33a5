import mealy

PUBLIC = [
    "Automaton", "CensusReport", "EventuallyPeriodicWord", "GroupWord", "SchreierGraph",
    "SpectrumReport", "Verdict", "act", "act_inf", "ball_size", "build", "builtin",
    "char_coeffs", "char_rational", "classify_cotransitive", "cotransitivity", "diameter",
    "dual", "dual_act", "enumerate_classes", "find_level_witness", "first_intransitive_level",
    "gap_series", "group_section", "inverse", "is_transitive_exact", "merge_reports",
    "minimize", "minimize_map", "orbit_cycle", "orbits_on_level", "product", "properties",
    "relabel", "spectrum", "stabilizes_infinite", "steer_to", "two_sided_gap", "union",
    "verify_lift", "__version__",
]


def test_public_api_pinned():
    assert len(PUBLIC) == 41
    assert mealy.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(mealy, name), name
