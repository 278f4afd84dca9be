"""Every corpus document through ``compute``: the samples and the seed-0
benchmark documents agree, and the maps with a root-of-unity eigenvalue
exit 3 at their first infinite iterate."""

import json
import re

import corpus


def test_every_document_agrees_or_names_its_infinite_iterate(tmp_path):
    paths = corpus.write(tmp_path)
    assert len(paths) > 400
    for name, path in paths.items():
        code, err, report = corpus.run(path)
        infinite = re.fullmatch(r"infinite-at-(\d+)", name)
        if infinite:
            assert (code, report) == (3, ""), name
            assert err == ("error: infinite class count: "
                           f"det(I - M^{infinite[1]}) = 0\n"), name
        else:
            assert (code, err) == (0, ""), name
            assert json.loads(report)["agreement"] is True, name
