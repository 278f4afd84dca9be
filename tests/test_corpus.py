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
