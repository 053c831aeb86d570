import json

import numpy as np

from bidistance import cli
from corpus import DIGESTS, corpus, digest, run


def test_seed_one_corpus_keeps_its_bytes(tmp_path, monkeypatch):
    # every call's exit code, output and written files, against the digests that
    # `python3 tools/same_outputs.py --write` took; a change that alters bytes on
    # purpose rewrites the file and names each changed call
    recorded = json.loads(DIGESTS.read_text())
    monkeypatch.chdir(tmp_path)
    files, calls = corpus(1)
    got = {" ".join(argv): digest(result)
           for argv, result in zip(calls, run(cli.main, files, calls))}
    changed = [call for call in got.keys() | recorded["digests"].keys()
               if got.get(call) != recorded["digests"].get(call)]
    assert not changed, (
        f"{len(changed)} of {len(got)} calls differ from {DIGESTS} (taken with numpy "
        f"{recorded['numpy']}, running {np.__version__}):\n" + "\n".join(sorted(changed)))
