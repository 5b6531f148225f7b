"""Every on-disk format; apart from the `.dadw` codec in :mod:`dadkit.model`,
the only module that opens a file.

Readers raise InvalidInputError (ConfigError for the config file) naming
the file for anything they cannot parse or that the object they build
rejects.  Writers are deterministic.  Text files are UTF-8 lines.
"""

from __future__ import annotations

import os
import re
import struct
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import _as_grid
from .errors import ConfigError, DadkitError, InvalidInputError, InvalidParameterError
from .evaluate import PER_PAIR_FIELDS
from .geometry import HomographyTransfer
from .sampler import KeypointSet
from .synth import POLARITIES, PairSample, SceneConfig, check_pair_consistency, make_pair

GRID_MAGIC = b"DADF"
GRID_VERSION = 1
# How far (px) a loaded pair's gt_b may sit from the transfer of gt_a: the
# CSVs keep six decimals, so a valid pair is off by about 1e-6 px.
GT_TOLERANCE = 1e-3


def _read_exact(f, n: int, path) -> bytes:
    """The next n bytes of binary file f, checked against its size before reading,
    so a corrupt length field never allocates more than the file holds."""
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise InvalidInputError(f"{path}: truncated file, expected {n} more bytes")
    return f.read(n)


def read_header(f, path, magic: bytes, version: int, fmt: str) -> list:
    """Check a binary file's magic and version, the first field of struct
    format `fmt`; returns the fields of `fmt` after the version."""
    got = f.read(len(magic))
    if got != magic:
        raise InvalidInputError(f"{path}: bad magic {got!r}, expected {magic!r}")
    found, *rest = struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), path))
    if found != version:
        raise InvalidInputError(f"{path}: unsupported {magic.decode()} version {found}")
    return rest


def _read_text(path) -> str:
    """The UTF-8 text of a file; InvalidInputError naming it if it does not decode."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InvalidInputError(f"{path}: not UTF-8 text (byte {e.start})") from None


def _write_lines(path, lines) -> None:
    Path(path).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


@contextmanager
def _named(path):
    """Re-raise a DadkitError of the block as InvalidInputError naming `path`."""
    try:
        yield
    except DadkitError as e:
        raise InvalidInputError(f"{path}: {e}") from None


# key=value files

def write_meta(path, entries: dict) -> None:
    """One `key=value` line per entry, in order; values print with str()."""
    _write_lines(path, (f"{k}={v}" for k, v in entries.items()))


def read_meta(path) -> dict[str, str]:
    """The stripped `key=value` lines of a file, skipping blank and `#` lines;
    any other line without `=` is an error naming `path:line`."""
    out = {}
    for ln, line in enumerate(_read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{ln}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def read_config_file(path) -> dict[str, str]:
    """A command's config file: `key=value` lines and `#` comments."""
    try:
        return read_meta(path)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror or e}") from None
    except InvalidInputError as e:
        raise ConfigError(str(e)) from None


def _meta_value(v):
    """A setting as meta.txt holds it: a bool as 0/1, a tuple comma-joined."""
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return v


def config_meta(cfg: SceneConfig) -> dict:
    """A SceneConfig's settings for meta.txt: its fields in order, without `kind`."""
    return {f.name: _meta_value(getattr(cfg, f.name)) for f in fields(cfg) if f.name != "kind"}


def write_command_meta(path, command: str, cfg: dict, extra: dict | None = None) -> None:
    """A command's provenance: its name, every set key in name order, then `extra`."""
    entries = {k: _meta_value(cfg[k]) for k in sorted(cfg) if cfg[k] is not None}
    write_meta(path, {"command": command, **entries, **(extra or {})})


def write_gradcheck_report(path, res) -> None:
    """A GradCheckResult as `key=value` lines, floats at nine digits."""
    write_meta(path, {**{f: f"{e:.9g}" for f, e in res.family_errors.items()},
                      **{f"{f}_margin": f"{m:.9g}" for f, m in res.family_margins.items()},
                      "max": f"{res.max_rel_error:.9g}", "instances": res.instances,
                      "min_grad_scale": f"{res.min_grad_scale:.9g}",
                      "zero_grad_redraws": res.zero_grad_redraws,
                      "tolerance": f"{res.tolerance:.9g}", "passed": int(res.passed)})


# CSV files

def write_csv(path, header: str, rows) -> None:
    """A header line, then one line per (already formatted) row."""
    _write_lines(path, [header, *rows])


def write_loss_csv(path, reports) -> None:
    """Training loss.csv: one LossReport row per step, floats at nine digits."""
    write_csv(path, "step,rl_loss,reg_loss,total,mean_raw_reward,num_matches",
              (f"{i},{r.rl_loss:.9g},{r.reg_loss:.9g},{r.total:.9g},"
               f"{r.mean_raw_reward:.9g},{r.num_matches}" for i, r in enumerate(reports)))


def write_distill_loss_csv(path, losses) -> None:
    """Distillation loss.csv: `step,loss`, one row per student step."""
    write_csv(path, "step,loss", (f"{i},{v:.9g}" for i, v in enumerate(losses)))


def write_report(report_path, csv_path, summary: dict, rows: list[dict]) -> None:
    """Sorted `key=value` summary lines plus a per-pair CSV, floats at nine digits."""
    write_meta(report_path, {k: f"{summary[k]:.9g}" for k in sorted(summary)})
    write_csv(csv_path, ",".join(PER_PAIR_FIELDS),
              (",".join(v if isinstance(v, str) else f"{v:.9g}"
                        for v in (row[f] for f in PER_PAIR_FIELDS)) for row in rows))


def _point_rows(kps: KeypointSet) -> list[str]:
    return [f"{x:.6f},{y:.6f},{s:.6f}" for (x, y), s in zip(kps.xy.tolist(), kps.scores.tolist())]


def write_keypoints_csv(path, kps: KeypointSet) -> None:
    """Write 'x,y,score' rows with six fractional digits (bit-stable text)."""
    write_csv(path, "x,y,score", _point_rows(kps))


def write_gt_csv(path, kps: KeypointSet, polarity: tuple[str, ...]) -> None:
    if len(polarity) != len(kps):
        raise InvalidInputError("polarity labels misaligned with keypoints")
    write_csv(path, "x,y,score,polarity",
              (f"{row},{pol}" for row, pol in zip(_point_rows(kps), polarity)))


def _read_points_csv(path, source_shape) -> tuple[KeypointSet, list[list[str]]]:
    """Parse 'x,y,score[,...]' rows; returns the set and each row's extra cells."""
    lines = _read_text(path).strip().splitlines()
    if not lines or not lines[0].startswith("x,y,score"):
        raise InvalidInputError(f"{path}: missing keypoint CSV header")
    vals, extra = [], []
    for line in lines[1:]:
        cells = line.split(",")
        try:
            x, y, score = (float(v) for v in cells[:3])
        except ValueError:
            raise InvalidInputError(f"{path}: malformed row {line!r}") from None
        vals.append((x, y, score))
        extra.append(cells[3:])
    v = np.array(vals, dtype=np.float64).reshape(-1, 3)
    with _named(path):
        return KeypointSet(v[:, :2], v[:, 2], tuple(source_shape)), extra


def read_keypoints_csv(path, source_shape) -> KeypointSet:
    """Read a keypoint CSV written by write_keypoints_csv (extra columns ignored)."""
    return _read_points_csv(path, source_shape)[0]


def read_gt_csv(path, source_shape) -> tuple[KeypointSet, tuple[str, ...]]:
    """Read a keypoint CSV with one more column, the polarity label."""
    kps, extra = _read_points_csv(path, source_shape)
    labels = tuple(cells[0].strip() for cells in extra if len(cells) == 1)
    if len(labels) != len(kps) or not set(labels) <= set(POLARITIES):
        raise InvalidInputError(f"{path}: every row needs one polarity label, 'light' or 'dark'")
    return kps, labels


# h.txt

def write_homography(path, t: HomographyTransfer) -> None:
    """Write nine row-major floats, three per line."""
    _write_lines(path, (" ".join(f"{v:.17g}" for v in row) for row in t.h))


def read_homography(path) -> HomographyTransfer:
    try:
        vals = [float(v) for v in _read_text(path).split()]
    except ValueError:
        raise InvalidInputError(f"{path}: non-numeric homography entry") from None
    if len(vals) != 9:
        raise InvalidInputError(f"{path}: expected 9 floats, got {len(vals)}")
    with _named(path):
        return HomographyTransfer(np.array(vals).reshape(3, 3))


# binary grids

def write_pgm(path, values) -> None:
    """8-bit binary P5; floats in [0,1] are rounded, bool maps to 0/255."""
    a = np.asarray(values)
    if a.ndim != 2:
        raise InvalidInputError("PGM payload must be 2-D")
    if a.dtype == bool:
        u8 = np.where(a, 255, 0).astype(np.uint8)
    else:
        if not np.isfinite(a).all() or a.min() < 0 or a.max() > 1:
            raise InvalidInputError("PGM float payload must be finite in [0, 1]")
        u8 = np.round(a * 255.0).astype(np.uint8)
    h, w = u8.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii") + u8.tobytes(order="C"))


# "P5", width, height, maxval 255 and one whitespace byte; `#` comments between
_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(rb"P5" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"255\s")


def read_pgm(path) -> np.ndarray:
    """Returns floats in [0,1]; callers threshold at 0.5 for masks."""
    data = Path(path).read_bytes()
    m = _PGM_HEADER.match(data)
    if m is None:
        raise InvalidInputError(f"{path}: not an 8-bit binary PGM (P5, maxval 255)")
    w, h, pos = int(m[1]), int(m[2]), m.end()
    if min(w, h) < 1 or len(data) - pos < h * w:
        raise InvalidInputError(f"{path}: PGM payload shorter than {w}x{h}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=pos)
    return pixels.reshape(h, w).astype(np.float64) / 255.0


def write_dadf(path, grid) -> None:
    """Write a grid as magic 'DADF', u32 version/height/width, float32 LE rows."""
    a = _as_grid(grid)
    with open(path, "wb") as f:
        f.write(GRID_MAGIC + struct.pack("<III", GRID_VERSION, *a.shape)
                + a.astype("<f4").tobytes(order="C"))


def read_dadf(path) -> np.ndarray:
    """Read a grid written by write_dadf; returns float64."""
    with open(path, "rb") as f:
        h, w = read_header(f, path, GRID_MAGIC, GRID_VERSION, "<III")
        data = _read_exact(f, 4 * h * w, path)
    return np.frombuffer(data, dtype="<f4").reshape(h, w).astype(np.float64)


# pair and dataset directories

def save_pair(dirpath, pair: PairSample, extra_meta: dict | None = None) -> None:
    """Write a pair directory; the masks are for inspection, load_pair derives them."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    write_pgm(d / "a.pgm", pair.image_a)
    write_pgm(d / "b.pgm", pair.image_b)
    write_homography(d / "h.txt", pair.transfer)
    write_pgm(d / "mask_a.pgm", pair.mask_a)
    write_pgm(d / "mask_b.pgm", pair.mask_b)
    write_gt_csv(d / "gt_a.csv", pair.gt_keypoints_a, pair.polarity_a)
    write_gt_csv(d / "gt_b.csv", pair.gt_keypoints_b, pair.polarity_b)
    write_meta(d / "meta.txt", {"kind": pair.kind, "seed": pair.seed, **(extra_meta or {})})


def load_pair(dirpath) -> PairSample:
    """Read a pair directory; errors name the file at fault, meta.txt (which
    must set the kind) for a pair that cannot be built, and the directory for
    ground truth that disagrees with h.txt by more than GT_TOLERANCE px.  The
    mask PGMs are not read: the pair derives its masks from h.txt."""
    d = Path(dirpath)
    meta = read_meta(d / "meta.txt")
    if "kind" not in meta:
        raise InvalidInputError(f"{d / 'meta.txt'}: missing key 'kind'")
    images = [read_pgm(d / f"{s}.pgm") for s in "ab"]
    (gt_a, pol_a), (gt_b, pol_b) = (read_gt_csv(d / f"gt_{s}.csv", im.shape)
                                    for s, im in zip("ab", images))
    if meta["kind"] == "toy" and len(gt_a) == 0:
        raise InvalidInputError(f"{d / 'gt_a.csv'}: a toy pair needs at least one dot")
    try:
        seed = int(meta.get("seed", 0))
    except ValueError:
        raise InvalidInputError(f"{d / 'meta.txt'}: seed must be an integer") from None
    transfer = read_homography(d / "h.txt")
    with _named(d / "meta.txt"):
        pair = PairSample(*images, transfer, gt_a, gt_b, pol_a, pol_b,
                          kind=meta["kind"], seed=seed)
    with _named(d):
        check_pair_consistency(pair, GT_TOLERANCE)
    return pair


def generate_dataset(root, cfg: SceneConfig, count: int, seed: int) -> list[Path]:
    """Write pairs 0..count-1 of stream `seed` as directories pair_000000.. under
    `root`; returns their paths.  The root's meta.txt is the caller's to write.
    Later commands would read any other pair_* directory under `root` with
    them, so one is refused before a pair is written; nothing is deleted."""
    if count < 0:
        raise InvalidParameterError(f"count must be >= 0, got {count}")
    rootp = Path(root)
    rootp.mkdir(parents=True, exist_ok=True)
    paths = [rootp / f"pair_{i:06d}" for i in range(count)]
    extra = sorted({p for p in rootp.glob("pair_*") if p.is_dir()} - set(paths))
    if extra:
        raise InvalidInputError(f"{extra[0]}: not one of the {count} pair(s) to write; "
                                f"write into an empty directory")
    for i, d in enumerate(paths):
        save_pair(d, make_pair(cfg, seed, i), {"index": i, **config_meta(cfg)})
    return paths


def pair_dirs(root) -> list[Path]:
    """The pair_* directories of a dataset root, in name order; none is an error."""
    dirs = sorted(p for p in Path(root).iterdir() if p.is_dir() and p.name.startswith("pair_"))
    if not dirs:
        raise InvalidInputError(f"{root}: no pair_* directories")
    return dirs


def load_dataset(root) -> list[PairSample]:
    return [load_pair(d) for d in pair_dirs(root)]
