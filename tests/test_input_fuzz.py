"""Loader fuzzing: one file of a small synth corpus is mutated at random, and
``mpalign build-graph`` either builds a graph holding every link the
alignment files name, or exits 1 with a message that names a file. It never
ends in a traceback, and it never drops a link in silence."""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpalign.cli import main

MUTATIONS = ("truncate", "drop_tab", "shift_index", "rename_id", "empty")


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_data")
    assert main([
        "synth", "--out", str(out), "--sentences", "12", "--languages", "3",
        "--vocab", "20", "--len-min", "3", "--len-max", "6", "--seed", "5",
        "--test-size", "3",
    ]) == 0
    return out


def mutate(path: Path, kind: str, data) -> None:
    """Apply mutation *kind* to one line of *path* (all of it for ``empty``),
    drawing its choices from the hypothesis *data* stream."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if kind == "empty" or not lines:
        path.write_text("", encoding="utf-8")
        return
    k = data.draw(st.integers(0, len(lines) - 1), label="line")
    sid, tab, payload = lines[k].partition("\t")
    if kind == "truncate":
        lines[k] = lines[k][: data.draw(st.integers(0, len(lines[k]) - 1), label="cut")]
    elif kind == "drop_tab":
        lines[k] = lines[k].replace("\t", "", 1)
    elif kind == "rename_id":
        other = [line.partition("\t")[0] for line in lines]
        new = data.draw(st.sampled_from(other) | st.from_regex(r"[a-z][0-9a-z]{0,6}",
                                                               fullmatch=True), label="id")
        lines[k] = new + tab + payload
    elif kind == "shift_index":
        items = payload.split()
        if items:
            n = data.draw(st.integers(0, len(items) - 1), label="link")
            side = data.draw(st.integers(0, 1), label="side")
            delta = data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3)), label="delta")
            ij = items[n].split("-")
            ij[side] = str(int(ij[side]) + delta)
            items[n] = "-".join(ij)
            lines[k] = sid + tab + " ".join(items)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def links_as_written(data_dir: Path):
    """(sentence, lang_a, i, lang_b, j) for every link of every alignment file."""
    for path in sorted(data_dir.glob("*.align")):
        la, lb = path.stem.split("-")
        for line in path.read_text(encoding="utf-8").splitlines():
            sid, _, payload = line.partition("\t")
            for item in payload.split():
                i, j = item.split("-")
                yield sid, la, int(i), lb, int(j)


def dumped_edges(dump: str) -> dict[str, set[tuple[tuple[str, int], tuple[str, int]]]]:
    """Per sentence, the edges of a ``build-graph`` dump as token pairs."""
    graphs: dict[str, set] = {}
    for block in dump.split("# sentence ")[1:]:
        sid, *rows = block.splitlines()
        token = {}
        edges = graphs.setdefault(sid, set())
        for row in rows:
            cells = row.split("\t")
            if cells[0] == "edge":
                u, v = token[cells[1]], token[cells[2]]
                edges.update({(u, v), (v, u)})
            else:
                token[cells[0]] = (cells[1], int(cells[2]))
    return graphs


@given(data=st.data())
def test_a_mutated_input_builds_every_link_or_is_refused_by_file(base_dir, data):
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "data"
        shutil.copytree(base_dir, data_dir)
        inputs = sorted(data_dir.glob("l*.txt")) + sorted(data_dir.glob("*.align"))
        target = data.draw(st.sampled_from(inputs), label="file")
        kinds = [k for k in MUTATIONS if k != "shift_index" or target.suffix == ".align"]
        mutate(target, data.draw(st.sampled_from(kinds), label="mutation"), data)
        dump = Path(tmp) / "graphs.txt"

        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main(["build-graph", "--data", str(data_dir), "--out", str(dump)])
        err = stderr.getvalue()
        if rc == 0:
            graphs = dumped_edges(dump.read_text(encoding="utf-8"))
            for sid, la, i, lb, j in links_as_written(data_dir):
                assert ((la, i), (lb, j)) in graphs[sid], (sid, la, i, lb, j)
        else:
            assert rc == 1
            # the mutated file, or an alignment file that no longer fits the
            # mutated corpus file
            named = re.findall(rf"{re.escape(str(data_dir))}/[\w.-]+", err)
            assert err.startswith("error: ") and named, err
            assert str(target) in named or (
                target.suffix == ".txt" and all(p.endswith(".align") for p in named)
            ), err
