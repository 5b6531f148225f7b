"""Every file reader against valid, cut and byte-flipped files.

Each format draws a valid value and writes it.  Read back untouched, the
file gives the value again.  Cut at a random length or with random bytes
flipped, it must parse or raise InvalidInputError (ConfigError for the
config file) whose message names the file; a binary file cut anywhere
must raise.  A last test keeps file access inside `dadkit.formats`.
"""

import ast
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadkit.errors import ConfigError, InvalidInputError
from dadkit.formats import (load_pair, read_config_file, read_dadf, read_gt_csv,
                            read_homography, read_keypoints_csv, read_meta, read_pgm,
                            save_pair, write_dadf, write_gt_csv, write_homography,
                            write_keypoints_csv, write_meta, write_pgm)
from dadkit.geometry import HomographyTransfer
from dadkit.model import ArchConfig, init_params, load_weights, save_weights
from dadkit.sampler import KeypointSet
from dadkit.synth import POLARITIES, SceneConfig, gen_toy_pair, pair_rng


class Format(NamedTuple):
    values: st.SearchStrategy
    write: Callable  # (directory, value) -> the file written
    read: Callable   # (file, value) -> what the file holds
    same: Callable   # (value, what was read) -> bool
    error: type = InvalidInputError
    binary: bool = False  # every strict prefix must raise


def _equal(a, b) -> bool:
    return a.shape == b.shape and bool(np.all(a == b))


@st.composite
def keypoint_sets(draw):
    """Valid sets, N = 0 included, whose values print exactly at six decimals."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rows = draw(st.lists(st.tuples(st.integers(0, 4 * (w - 1)), st.integers(0, 4 * (h - 1)),
                                   st.integers(-64, 64)), max_size=12))
    v = np.array(sorted(rows, key=lambda r: -r[2]), dtype=np.float64).reshape(-1, 3)
    return KeypointSet(v[:, :2] / 4, v[:, 2] / 64, (h, w))


@st.composite
def gt_sets(draw):
    """Labelled sets, N = 0 included, at quarter-pixel positions (exact in the CSV)."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rows = draw(st.lists(st.tuples(st.integers(0, 4 * (w - 1)), st.integers(0, 4 * (h - 1)),
                                   st.sampled_from(POLARITIES)), max_size=12))
    xy = np.array([r[:2] for r in rows], dtype=np.float64).reshape(-1, 2) / 4
    return KeypointSet(xy, np.ones(len(rows)), (h, w)), tuple(r[2] for r in rows)


@st.composite
def images(draw):
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pixels = draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
    return np.array(pixels, dtype=np.float64).reshape(h, w) / 255.0


@st.composite
def grids(draw):
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                          min_size=h * w, max_size=h * w))
    return np.array(cells, dtype=np.float64).reshape(h, w)


@st.composite
def transfers(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = np.eye(3) + rng.normal(0.0, 0.05, size=(3, 3))
    h[2, :2] = rng.normal(0.0, 0.002, size=2)
    return HomographyTransfer(h)


_WORDS = st.from_regex(r"[A-Za-z0-9_.,+-]{1,12}", fullmatch=True)
key_values = st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True), _WORDS,
                             max_size=6)

_TOY = gen_toy_pair(pair_rng(0, 0), SceneConfig.toy(size=24, num_light=1, num_dark=1))


def _write_pair(d, value):
    seed, extra = value
    save_pair(d / "pair", replace(_TOY, seed=seed), extra)
    return d / "pair" / "meta.txt"


def _written(write, name):
    """A `write(directory, value)` for a writer that takes (path, value)."""
    def to(d, value):
        write(d / name, value)
        return d / name
    return to


FORMATS = {
    "pgm": Format(images(), _written(write_pgm, "x.pgm"), lambda p, v: read_pgm(p),
                  _equal, binary=True),
    "dadf": Format(grids(), _written(write_dadf, "grid.dadf"), lambda p, v: read_dadf(p),
                   _equal, binary=True),
    "dadw": Format(st.builds(lambda w, k, s: init_params(ArchConfig(tuple(w), k, s)),
                             st.lists(st.integers(1, 3), min_size=1, max_size=2),
                             st.sampled_from([1, 3]), st.integers(0, 9)),
                   _written(save_weights, "w.dadw"), lambda p, v: load_weights(p),
                   lambda v, back: all(_equal(a.kernel.astype("<f4"), b.kernel)
                                       and _equal(a.bias.astype("<f4"), b.bias)
                                       for a, b in zip(v.layers, back.layers))
                   and back.arch.channel_widths == v.arch.channel_widths,
                   binary=True),
    "keypoints_csv": Format(keypoint_sets(), _written(write_keypoints_csv, "kps.csv"),
                            lambda p, v: read_keypoints_csv(p, v.source_shape),
                            lambda v, back: _equal(v.xy, back.xy)
                            and _equal(v.scores, back.scores)),
    "gt_csv": Format(gt_sets(), _written(lambda p, v: write_gt_csv(p, *v), "gt.csv"),
                     lambda p, v: read_gt_csv(p, v[0].source_shape),
                     lambda v, back: _equal(v[0].xy, back[0].xy)
                     and _equal(v[0].scores, back[0].scores) and v[1] == back[1]),
    "homography": Format(transfers(), _written(write_homography, "h.txt"),
                         lambda p, v: read_homography(p), lambda v, back: _equal(v.h, back.h)),
    "config": Format(key_values, _written(write_meta, "run.cfg"),
                     lambda p, v: read_config_file(p), lambda v, back: v == back,
                     error=ConfigError),
    "pair_meta": Format(st.tuples(st.integers(0, 2**31), key_values.map(
                            lambda d: {k: d[k] for k in sorted(d)[:2] if k not in ("kind", "seed")})),
                        _write_pair, lambda p, v: (load_pair(p.parent), read_meta(p)),
                        lambda v, back: back[0].seed == v[0] and back[0].kind == "toy"
                        and back[1] == {"kind": "toy", "seed": str(v[0]), **v[1]}),
}


def _value_and_file(tmp_path_factory, name, data):
    fmt = FORMATS[name]
    value = data.draw(fmt.values, label="value")
    return fmt, value, fmt.write(tmp_path_factory.mktemp(name), value)


@pytest.mark.parametrize("name", FORMATS)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_round_trip(tmp_path_factory, name, data):
    fmt, value, path = _value_and_file(tmp_path_factory, name, data)
    assert fmt.same(value, fmt.read(path, value))


@pytest.mark.parametrize("name", FORMATS)
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_damaged_file_parses_or_names_its_path(tmp_path_factory, name, data):
    fmt, value, path = _value_and_file(tmp_path_factory, name, data)
    blob = path.read_bytes()
    # uniform positions: hypothesis' own integers favour the ends of a range
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="damage seed"))
    if not blob or rng.random() < 0.5:
        damaged = blob[:rng.integers(0, len(blob) + 1)]
    else:
        damaged = bytearray(blob)
        for at in rng.integers(0, len(blob), rng.integers(1, 5)):
            damaged[at] ^= rng.integers(1, 256)
    path.write_bytes(bytes(damaged))
    try:
        fmt.read(path, value)
    except fmt.error as e:
        assert str(path) in str(e)
    else:
        assert not (fmt.binary and len(damaged) < len(blob)), "a cut binary file parsed"


@pytest.mark.parametrize("name", [name for name, fmt in FORMATS.items() if fmt.binary])
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_binary_file_cut_anywhere_raises_naming_its_path(tmp_path_factory, name, data):
    fmt, value, path = _value_and_file(tmp_path_factory, name, data)
    blob = path.read_bytes()
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(fmt.error, match=path.name):
            fmt.read(path, value)


FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
# The .dadw codec stays in model.py: model's own callers (and the benchmark)
# use dadkit.model.save_weights, and formats cannot import model.
ALLOWED = {("model.py", "save_weights"), ("model.py", "load_weights")}


def test_only_formats_touches_files():
    src = Path(__file__).resolve().parents[1] / "src" / "dadkit"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "formats.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "attr", getattr(func, "id", None))
                if isinstance(node, ast.Call) and name in FILE_CALLS \
                        and (path.name, owner) not in ALLOWED:
                    found.append(f"{path.name}:{node.lineno} {name} in {owner}")
    assert not found, found
