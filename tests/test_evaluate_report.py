import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auricle import (
    STEM_NAMES,
    AudioBuffer,
    MetricValue,
    aggregate_medians,
    bin_by_angle,
    evaluate_track,
    read_rows_csv,
    read_wav,
    sample_layout,
    synthesize_track,
    write_report,
    write_rows_csv,
    write_wav,
)
from auricle.cli import run_cli
from auricle.evaluate import METRIC_FIELDS, MetricRow, discover_tracks, evaluate_tree
from auricle.metrics import NEG_DB_CLAMP
from auricle.report import ANGLE_BIN_EDGES, _bin_index

from helpers import make_song_dir, shift_zero_fill

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def synth_song(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    rng = np.random.default_rng(404)
    db = __import__("auricle").spherical_head_database()
    song = make_song_dir(root / "in", "songA", rng)
    out = root / "ref" / "songA"
    manifest = synthesize_track(song, db, sample_layout(21), out)
    return out, manifest


def _make_row(track, stem, az, itd=0.0, ild=0.0, ssr=10.0, srr=5.0):
    return MetricRow(
        track_id=track,
        stem=stem,
        azimuth_deg=az,
        ssr_db=MetricValue.from_float(ssr),
        srr_db=MetricValue.from_float(srr),
        delta_itd_us=MetricValue.from_float(itd),
        delta_ild_db=MetricValue.from_float(ild),
    )


def test_self_evaluation_identity(synth_song):
    out, manifest = synth_song
    rows = evaluate_track(out, out)
    assert [r.stem for r in rows] == list(STEM_NAMES)
    for row in rows:
        assert row.delta_itd_us.value == 0.0
        assert row.delta_ild_db.value == 0.0
        assert row.ssr_db.is_infinite
        assert row.srr_db.is_infinite
        assert row.azimuth_deg == manifest.stems[row.stem]["azimuth_deg"]


def test_manifest_read_from_disk(synth_song):
    out, manifest = synth_song
    rows = evaluate_track(out, out)  # layout.json picked up automatically
    assert all(r.azimuth_deg is not None for r in rows)
    assert rows[0].track_id == manifest.song_id


def test_one_sample_perturbation_quantum(synth_song, tmp_path):
    out, _ = synth_song
    est_dir = tmp_path / "est"
    est_dir.mkdir()
    for stem in STEM_NAMES:
        buf = read_wav(out / f"{stem}.wav")
        shifted = np.stack([buf.samples[0], shift_zero_fill(buf.samples[1], -1)])
        write_wav(est_dir / f"{stem}.wav", AudioBuffer(shifted, buf.sample_rate))
    rows = evaluate_track(out, est_dir)
    for row in rows:
        assert row.delta_itd_us.value == pytest.approx(22.676, abs=1e-3)


def test_missing_estimate_stem_named(synth_song, tmp_path):
    out, _ = synth_song
    est_dir = tmp_path / "est"
    est_dir.mkdir()
    for stem in ("vocals", "bass", "other"):
        (est_dir / f"{stem}.wav").write_bytes((out / f"{stem}.wav").read_bytes())
    with pytest.raises(FileNotFoundError, match="drums"):
        evaluate_track(out, est_dir)


def test_discover_and_evaluate_tree(tmp_path, sphere_db):
    rng = np.random.default_rng(7)
    db = sphere_db
    for name in ("s1", "s2"):
        song = make_song_dir(tmp_path / "in", name, rng, seconds=1.0)
        synthesize_track(song, db, sample_layout(3), tmp_path / "ref" / "test" / name)
    tracks = discover_tracks(tmp_path / "ref")
    assert [str(t) for t in tracks] == ["test/s1", "test/s2"]
    rows = evaluate_tree(tmp_path / "ref", tmp_path / "ref")
    assert len(rows) == 8
    assert [r.track_id for r in rows] == ["s1"] * 4 + ["s2"] * 4


def test_rows_csv_roundtrip(tmp_path):
    rows = [
        _make_row("t1", "vocals", 30, itd=22.675736961451247),
        MetricRow(
            "t2",
            "bass",
            None,
            MetricValue.infinite(),
            MetricValue.undefined(),
            MetricValue.finite(0.0),
            MetricValue.finite(1.25),
        ),
    ]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    back = read_rows_csv(path)
    assert back[0].delta_itd_us.value == rows[0].delta_itd_us.value  # full precision kept
    assert back[1].ssr_db.is_infinite
    assert back[1].srr_db.is_undefined
    assert back[1].azimuth_deg is None


metric_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(MetricValue.finite),
    st.just(MetricValue.finite(NEG_DB_CLAMP)),
    st.just(MetricValue.infinite()),
    st.just(MetricValue.undefined()),
)
metric_rows = st.builds(
    MetricRow,
    track_id=st.text(string.ascii_letters + string.digits + ' _-/,"', min_size=1, max_size=10),
    stem=st.sampled_from(STEM_NAMES),
    azimuth_deg=st.none() | st.integers(-90, 90),
    **{f: metric_values for f in METRIC_FIELDS},
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(metric_rows, min_size=1, max_size=6))
def test_rows_csv_roundtrip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_rows_csv(rows, path)
    assert read_rows_csv(path) == rows


def test_incomplete_reference_track_rejected_before_scoring(tmp_path, monkeypatch):
    ref = tmp_path / "ref"
    full = make_song_dir(ref, "a_full", np.random.default_rng(5), seconds=0.5)
    (ref / "b_partial").mkdir()
    (ref / "b_partial" / "vocals.wav").write_bytes((full / "vocals.wav").read_bytes())
    scored = []
    monkeypatch.setattr("auricle.evaluate.evaluate_track", lambda *args: scored.append(args) or [])
    with pytest.raises(FileNotFoundError, match=r"b_partial lacks stems \['bass', 'drums', 'other'\]"):
        evaluate_tree(ref, ref)
    assert scored == []


def test_estimate_tree_inside_the_reference_is_refused_before_reading(tmp_path, monkeypatch):
    rng = np.random.default_rng(6)
    ref = tmp_path / "ref"
    for root in (ref, ref / "est", tmp_path / "ref-est"):
        make_song_dir(root / "test", "te1", rng, seconds=0.5)
    scored = []
    monkeypatch.setattr("auricle.evaluate.evaluate_track", lambda *args: scored.append(args) or [])
    est = ref / "est"
    with pytest.raises(ValueError, match=f"^estimate root {re.escape(str(est))} lies inside the reference root {re.escape(str(ref))}$"):
        evaluate_tree(ref, est)
    argv = ["evaluate", "--reference", ref, "--estimates", est, "--out", tmp_path / "rows.csv"]
    assert run_cli([str(a) for a in argv]) == 1
    assert scored == [] and not (tmp_path / "rows.csv").exists()
    # equal roots and a sibling whose name extends the reference's are not nested
    assert evaluate_tree(ref / "est", ref / "est") == evaluate_tree(ref / "est", tmp_path / "ref-est") == []
    assert len(scored) == 2


def test_discover_tracks_names_a_missing_root_and_an_empty_tree(tmp_path):
    with pytest.raises(FileNotFoundError, match=f"stem tree root not found: {re.escape(str(tmp_path / 'nope'))}$"):
        discover_tracks(tmp_path / "nope")
    (tmp_path / "empty" / "song").mkdir(parents=True)
    (tmp_path / "empty" / "song" / "mixture.wav").write_bytes(b"")
    with pytest.raises(FileNotFoundError, match=f"no stem WAVs found under {re.escape(str(tmp_path / 'empty'))}$"):
        discover_tracks(tmp_path / "empty")


def test_evaluate_track_rejects_a_mono_stem_naming_it(synth_song, tmp_path):
    out, _ = synth_song
    est_dir = tmp_path / "est"
    est_dir.mkdir()
    for stem in STEM_NAMES:
        (est_dir / f"{stem}.wav").write_bytes((out / f"{stem}.wav").read_bytes())
    write_wav(est_dir / "vocals.wav", AudioBuffer(np.full(4410, 0.1), 44100))
    with pytest.raises(ValueError, match=f"stems must be stereo: .* / {re.escape(str(est_dir / 'vocals.wav'))}$"):
        evaluate_track(out, est_dir)


def _rows_csv(tmp_path, azimuth="30", ssr="1.5"):
    path = tmp_path / "rows.csv"
    write_rows_csv([_make_row("t1", "vocals", 0), _make_row("t1", "bass", 10)], path)
    lines = path.read_text().splitlines()
    lines[2] = f"t1,bass,{azimuth},{ssr},5.0,0.0,0.0"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("azimuth", ["-120", "150", "30.5", "abc"])
def test_rows_csv_azimuth_off_the_integer_range_is_named_with_the_line(tmp_path, azimuth):
    path = _rows_csv(tmp_path, azimuth=azimuth)
    cause = f"azimuth_deg must be an integer in [-90, 90], got {azimuth!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 3: {re.escape(cause)}$"):
        read_rows_csv(path)


def test_rows_csv_cell_that_is_not_a_number_is_named_with_the_line(tmp_path):
    assert read_rows_csv(_rows_csv(tmp_path))[1].azimuth_deg == 30
    path = _rows_csv(tmp_path, ssr="abc")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 3: ssr_db cell 'abc' is not a number$"):
        read_rows_csv(path)


def test_rows_csv_with_a_wrong_header_or_no_rows_is_named(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("track_id,stem\nt1,vocals\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} is not a metrics CSV \(header \['track_id', 'stem'\]\)$"):
        read_rows_csv(path)
    write_rows_csv([], path)
    with pytest.raises(ValueError, match=f"^no rows in {re.escape(str(path))}$"):
        read_rows_csv(path)


def test_aggregate_medians_sort_oracle(rng):
    # 50 tracks with known per-track delta-ILD values: medians must equal the
    # brute-force sorted middle for every stem
    values = {stem: rng.uniform(0, 3, size=50) for stem in STEM_NAMES}
    rows = []
    for i in range(50):
        for stem in STEM_NAMES:
            rows.append(_make_row(f"t{i}", stem, None, ild=values[stem][i]))
    report = aggregate_medians(rows)
    for stem in STEM_NAMES:
        v = np.sort(values[stem])
        want = (v[24] + v[25]) / 2
        assert report.by_instrument[stem]["delta_ild_db"].median.value == pytest.approx(want)
    pooled = np.sort(np.concatenate(list(values.values())))
    want = (pooled[99] + pooled[100]) / 2
    assert report.overall["delta_ild_db"].median.value == pytest.approx(want)


def test_median_ordering_rules():
    rows = [_make_row("a", "vocals", None, ssr=1.0), _make_row("b", "vocals", None, ssr=2.0),
            _make_row("c", "vocals", None, ssr=3.0)]
    report = aggregate_medians(rows)
    assert report.by_instrument["vocals"]["ssr_db"].median.value == 2.0

    rows[2] = MetricRow("c", "vocals", None, MetricValue.infinite(),
                        MetricValue.finite(0.0), MetricValue.finite(0.0),
                        MetricValue.finite(0.0))
    report = aggregate_medians(rows)
    assert report.by_instrument["vocals"]["ssr_db"].median.value == 2.0  # {1, 2, inf} -> 2


def test_undefined_excluded_with_count():
    rows = [
        _make_row("a", "drums", None, ssr=4.0),
        MetricRow("b", "drums", None, MetricValue.undefined(),
                  MetricValue.finite(1.0), MetricValue.finite(0.0),
                  MetricValue.finite(0.0)),
    ]
    report = aggregate_medians(rows)
    cell = report.by_instrument["drums"]["ssr_db"]
    assert cell.median.value == 4.0 and cell.excluded == 1
    # an all-undefined cell stays undefined and reports the exclusion count
    allu = [MetricRow("a", "other", None, MetricValue.undefined(),
                      MetricValue.finite(1.0), MetricValue.finite(0.0),
                      MetricValue.finite(0.0))]
    cell = aggregate_medians(allu).by_instrument["other"]["ssr_db"]
    assert cell.median.is_undefined and cell.excluded == 1


def test_aggregate_permutation_invariant(rng):
    rows = [_make_row(f"t{i}", stem, None, ild=float(i + j))
            for i in range(10) for j, stem in enumerate(STEM_NAMES)]
    a = aggregate_medians(rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    b = aggregate_medians(shuffled)
    for stem in STEM_NAMES:
        for m in METRIC_FIELDS:
            assert a.by_instrument[stem][m].median.value == b.by_instrument[stem][m].median.value


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=st.lists(metric_rows, min_size=1, max_size=12))
def test_aggregate_medians_invariant_to_row_order(data, rows):
    shuffled = data.draw(st.permutations(rows))
    a, b = aggregate_medians(rows), aggregate_medians(shuffled)
    cells = [(a.overall, b.overall)] + [(a.by_instrument[s], b.by_instrument[s]) for s in STEM_NAMES]
    for cell_a, cell_b in cells:
        for m in METRIC_FIELDS:
            assert (cell_a[m].count, cell_a[m].excluded) == (cell_b[m].count, cell_b[m].excluded)
            assert repr(cell_a[m].median.as_float()) == repr(cell_b[m].median.as_float())


# Finite values a metric can hold: normal floats within +-1e300, and +0.0 (no
# metric writes -0.0). np.median averages the middle pair as (a + b) / 2, the
# report as 0.5 * a + 0.5 * b; these round alike unless a + b overflows or a
# half is subnormal, far outside any dB or microsecond value.
db_values = st.one_of(
    st.floats(-1e300, 1e300, allow_subnormal=False).map(lambda x: MetricValue.finite(x + 0.0)),
    st.sampled_from([0.0, 1.5, NEG_DB_CLAMP]).map(MetricValue.finite),
    st.just(MetricValue.infinite()),
    st.just(MetricValue.undefined()),
)


def _db_rows(azimuths=st.integers(-90, 90)):
    return st.builds(
        MetricRow,
        track_id=st.just("t"),
        stem=st.sampled_from(STEM_NAMES),
        azimuth_deg=azimuths,
        **{f: db_values for f in METRIC_FIELDS},
    )


def _box_bits(box):
    return [float.hex(v.as_float()) for v in box.stats.values()], box.count, box.excluded


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_db_rows(), min_size=1, max_size=16))
def test_report_median_is_numpy_median_to_the_bit(rows):
    report = aggregate_medians(rows)
    groups = [(report.overall, rows)]
    groups += [(report.by_instrument[s], [r for r in rows if r.stem == s]) for s in STEM_NAMES]
    for cells, members in groups:
        for m in METRIC_FIELDS:
            values = [r.metric(m).as_float() for r in members]
            defined = [x for x in values if not np.isnan(x)]
            cell = cells[m]
            assert (cell.count, cell.excluded) == (len(defined), len(values) - len(defined))
            if defined:
                assert float.hex(cell.median.as_float()) == float.hex(float(np.median(defined)))
            else:
                assert cell.median.is_undefined


@settings(max_examples=200, deadline=None)
@given(data=st.data(), index=st.integers(0, 5))
def test_single_bin_boxes_equal_dataset_boxes(data, index):
    low, high = ANGLE_BIN_EDGES[index], ANGLE_BIN_EDGES[index + 1]
    azimuths = st.integers(low, high if index == 5 else high - 1)
    rows = data.draw(st.lists(_db_rows(azimuths), min_size=1, max_size=16))
    report, angle_bin = aggregate_medians(rows), bin_by_angle(rows)[index]
    for m in METRIC_FIELDS:
        assert _box_bits(angle_bin.pooled[m]) == _box_bits(report.overall[m])
        for stem in STEM_NAMES:
            assert _box_bits(angle_bin.per_stem[stem][m]) == _box_bits(report.by_instrument[stem][m])


def test_bin_boundaries():
    assert _bin_index(-90) == 0  # [-90, -60)
    assert _bin_index(-60) == 1
    assert _bin_index(-1) == 2
    assert _bin_index(0) == 3
    assert _bin_index(30) == 4
    assert _bin_index(60) == 5
    assert _bin_index(90) == 5  # closed top boundary


def test_binning_counts_match_direct_oracle(rng):
    angles = [int(a) for a in rng.choice(range(-90, 91, 10), size=200)]
    rows = [_make_row(f"t{i}", STEM_NAMES[i % 4], a, ild=rng.uniform()) for i, a in enumerate(angles)]
    bins = bin_by_angle(rows)
    for i, b in enumerate(bins):
        lo, hi = ANGLE_BIN_EDGES[i], ANGLE_BIN_EDGES[i + 1]
        if i == 5:
            want = sum(1 for a in angles if lo <= a <= hi)
        else:
            want = sum(1 for a in angles if lo <= a < hi)
        assert b.pooled["delta_ild_db"].count == want


def test_binning_warns_on_missing_azimuth():
    rows = [_make_row("a", "vocals", None), _make_row("b", "vocals", 10)]
    with pytest.warns(UserWarning, match="without azimuth"):
        bins = bin_by_angle(rows)
    assert sum(b.pooled["delta_ild_db"].count for b in bins) == 1


def test_write_report_formats(tmp_path):
    rows = [_make_row(f"t{i}", stem, 10 * (i % 4) - 20, itd=0.0)
            for i in range(8) for stem in STEM_NAMES]
    report = aggregate_medians(rows)
    write_report(report, "csv", tmp_path / "r.csv")
    text = (tmp_path / "r.csv").read_text()
    lines = text.splitlines()
    assert lines[1] == "group,metric,bass,drums,other,vocals,overall"
    itd_line = next(l for l in lines if l.startswith("all,delta_itd_us"))
    assert itd_line == "all,delta_itd_us,0.00,0.00,0.00,0.00,0.00"

    write_report(report, "markdown", tmp_path / "r.md")
    md = (tmp_path / "r.md").read_text()
    assert "| Metric | Bass | Drums | Other | Vocals | Overall |" in md

    with pytest.raises(ValueError):
        write_report(report, "html", tmp_path / "r.html")


def test_report_infinite_and_undefined_rendering(tmp_path):
    rows = [MetricRow("a", stem, None, MetricValue.infinite(),
                      MetricValue.undefined(), MetricValue.finite(0.0),
                      MetricValue.finite(0.5)) for stem in STEM_NAMES]
    write_report(aggregate_medians(rows), "csv", tmp_path / "r.csv")
    text = (tmp_path / "r.csv").read_text()
    assert "all,ssr_db,inf,inf,inf,inf,inf" in text
    assert "n/a (1 excluded)" in text


def test_report_requires_rows():
    with pytest.raises(ValueError):
        aggregate_medians([])


def test_report_byte_stable_golden(tmp_path):
    # fixed synthetic rows must render to byte-identical CSV across runs
    rng = np.random.default_rng(1234)
    rows = []
    for i in range(12):
        for j, stem in enumerate(STEM_NAMES):
            rows.append(
                _make_row(
                    f"track{i:02d}",
                    stem,
                    int(rng.choice(range(-90, 91, 10))),
                    itd=float(np.round(rng.uniform(0, 500), 6)),
                    ild=float(np.round(rng.uniform(0, 2), 6)),
                    ssr=float(np.round(rng.uniform(0, 20), 6)),
                    srr=float(np.round(rng.uniform(0, 12), 6)),
                )
            )
    report = aggregate_medians(rows)
    report.by_angle = bin_by_angle(rows)
    write_report(report, "csv", tmp_path / "r.csv")
    got = (tmp_path / "r.csv").read_text()
    golden = (__import__("pathlib").Path(__file__).parent / "data" / "report_golden.csv").read_text()
    assert got == golden


def _pinned_report():
    # Bins [-60,-30) and [-30,0) stay empty; SRR holds one undefined value in
    # [0,30) and in [60,90], next to defined ones; SSR has an infinite cell.
    f, undefined = MetricValue.finite, MetricValue.undefined()
    table = [
        ("t1", "vocals", -80, f(10.125), f(3.5), f(0.0), f(0.25)),
        ("t1", "bass", 0, MetricValue.infinite(), undefined, f(12.5), f(1 / 3)),
        ("t1", "drums", 40, f(-2.0), f(1.0), f(25.0), f(0.5)),
        ("t1", "other", 90, f(7.0), f(NEG_DB_CLAMP), f(50.0), f(2 / 3)),
        ("t2", "vocals", 10, f(12.0), f(4.0), f(22.675736961451246), f(0.125)),
        ("t2", "bass", 20, f(3.0), f(2.0), f(0.0), f(0.1)),
        ("t2", "drums", 60, f(1.5), undefined, f(100.0), f(1.0)),
        ("t2", "other", -70, f(9.75), f(6.0), f(45.35147392290249), f(0.2)),
    ]
    rows = [MetricRow(*cells) for cells in table]
    report = aggregate_medians(rows)
    report.by_angle = bin_by_angle(rows)
    return report


@pytest.mark.parametrize("fmt, suffix", [("csv", "csv"), ("markdown", "md")])
@pytest.mark.parametrize("full_precision", [False, True])
def test_report_by_angle_bytes_pinned(tmp_path, fmt, suffix, full_precision):
    write_report(_pinned_report(), fmt, tmp_path / "report", full_precision=full_precision)
    pinned = DATA / f"report_by_angle{'_full' if full_precision else ''}.{suffix}"
    assert (tmp_path / "report").read_bytes() == pinned.read_bytes()
