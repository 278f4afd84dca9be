"""Every corpus document through ``compute``: the samples and the seed-0
benchmark documents agree, and the maps with a root-of-unity eigenvalue
exit 3 at their first infinite iterate.  The reports come from the one
corpus pass (``corpus_reports``) that the stored-answer test reads too."""

import json
import re


def test_every_document_agrees_or_names_its_infinite_iterate(corpus_reports):
    assert len(corpus_reports) > 400
    for name, (code, err, report) in corpus_reports.items():
        infinite = re.fullmatch(r"infinite-at-(\d+)", name)
        if infinite:
            assert (code, report) == (3, ""), name
            assert err == ("error: infinite class count: "
                           f"det(I - M^{infinite[1]}) = 0\n"), name
        else:
            assert (code, err) == (0, ""), name
            assert json.loads(report)["agreement"] is True, name


def test_every_zeta_factor_is_a_trimmed_det_identity_minus_xz(
        corpus_reports):
    # Each factor is det(I - X z): its constant term is 1, and no producer
    # of factors leaves a zero last coefficient.
    factors = [factor["coeffs"] for code, _, report in corpus_reports.values()
               if code == 0 and "zeta" in (parsed := json.loads(report))
               for factor in parsed["zeta"]["factors"]]
    assert len(factors) > 400
    for coeffs in factors:
        assert coeffs[0] == 1 and len(coeffs) > 1 and coeffs[-1], coeffs
