"""Generated cohorts that more than one test module builds."""

from dataclasses import replace

from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic


def shape_groups_cohort(seed, n=6):
    """Two one-group cohorts whose groups differ in shape (offsets and lag),
    not in level, merged with their subjects renamed: with n = 6, S000-S005
    are group 0 and S006-S011 group 1."""
    series = []
    for g, (offsets, tau) in enumerate((((0.0, 5.0, 30.0, 12.0, 3.0), 5.0),
                                        ((0.0, 18.0, 8.0, 30.0, 3.0), 60.0))):
        part, _ = generate_synthetic(SyntheticCohortSpec(
            n, 1, 10 * seed + g, group_offset_profiles=(offsets,), lag_tau_s=tau))
        series += [replace(s, subject_id=f"S{g * n + i:03d}") for i, s in enumerate(part)]
    return series
