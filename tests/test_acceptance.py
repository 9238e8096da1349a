"""Acceptance suite: the shipped guarantees, one verdict line per check.

Every check records `[acceptance NN] <name>: PASS|FAIL (detail)` before
asserting; conftest replays the recorded lines in a summary section after the
run, so all eleven verdicts reach the terminal even when some checks fail.
"""

import itertools
import json
import time

import numpy as np
from scipy.integrate import quad

from covpow import (
    DomainError,
    LabeledSeries,
    MaternModel,
    SpdMatrix,
    SplitSpec,
    WeightedGraph,
    WindowSpec,
    air_distance,
    beta_integral_constant,
    circular_contour,
    class_distance_stats,
    default_beta_grid,
    empirical_covariance,
    evaluate,
    extract_signature,
    interaction_operator,
    operator_norm,
    osc,
    partition_blocks,
    population_covariance,
    power_features,
    s3_score,
    sample_field,
    sample_inhomogeneous_er,
    select_beta,
    shrink_to_gate,
    signature_from_matrix,
    sliding_windows,
    spd_power_contour,
    spd_power_eig,
    spd_power_stieltjes,
    spectral_norm,
    split_dataset,
    support_recovery_metrics,
    verify_instance,
)
from covpow.cli import main as cli_main
from covpow.pipeline import metrics_to_dict, selection_to_dict


_VERDICTS: list[str] = []


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    _VERDICTS.append(line)  # replayed by conftest after the run
    print(line, flush=True)


def _random_spd(rng, dim, cond, scale=1.0):
    mid = rng.uniform(1.0, cond, size=dim - 2) if dim > 2 else np.empty(0)
    w = scale * np.sort(np.concatenate([[1.0, cond], mid]))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return SpdMatrix((q * w) @ q.T)


# ---------------------------------------------------------------------------
# gated partially observed instances, shared by checks 03 and 10


def _gated_instance(seed, alpha, u, sigma=1.0):
    """One partially observed model whose cross block passes a gate.

    Draws an 11-node graph (7 observed, 4 latent), then shrinks the
    observed-latent block with shrink_to_gate, the rule `covpow verify` runs
    under gate_target_fraction, until its norm is below fraction u of the
    strongest applicable gate. Returns (model, partition, report) or None for
    draws that cannot be gated.
    """
    graph, part = sample_inhomogeneous_er(
        7, 4, p_obs=0.5, p_lat=0.5, p_cross=0.15, seed=seed
    )
    if graph.degrees().min() <= 0:
        return None
    adj_s = graph.adjacency[np.ix_(part.observed, part.observed)]
    off = adj_s[~np.eye(adj_s.shape[0], dtype=bool)]
    if not (off > 0).any() or not (off == 0).any():
        return None  # structure check needs both pair kinds
    try:
        graph = shrink_to_gate(graph, part, 1.0, alpha, 1.0 / alpha, sigma, u)
    except DomainError:
        return None
    if operator_norm(partition_blocks(graph.adjacency, part)[1]) == 0:
        return None
    if graph.degrees().min() < 1e-8:
        return None
    model = MaternModel(graph=graph, kappa=1.0, alpha=alpha, sigma=sigma)
    report = verify_instance(model, part)
    gf, gc = report.gate_fractional, report.gate_contour
    if not ((gf is not None and gf.satisfied) or (gc is not None and gc.satisfied)):
        return None
    return model, part, report


# ---------------------------------------------------------------------------
# supervised two-class runs, shared by checks 07 and 08


def _er12(p, scale, seed, top=1.2, max_cond=15.0):
    """12-node ER graph with bounded operator conditioning.

    Rejects draws with isolated nodes or a too-spread interaction spectrum,
    then rescales so the largest operator eigenvalue is top*scale. The
    conditioning cap keeps every window covariance safely powerable across
    the whole default beta grid.
    """
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(12, 1)
    for _ in range(200):
        w = rng.uniform(0.5, 1.5, iu[0].size) * (rng.random(iu[0].size) < p)
        a = np.zeros((12, 12))
        a[iu] = w
        a = a + a.T
        if not (a.sum(axis=1) > 0).all():
            continue
        lam = np.linalg.eigvalsh(interaction_operator(WeightedGraph(a), 1.0))
        if lam[-1] / lam[0] > max_cond:
            continue
        return WeightedGraph(a * (top * scale / lam[-1]))
    raise AssertionError(f"no admissible 12-node draw at p={p}")


_PIPELINE_CACHE = {}


def _pipeline_run(seed, fresh=False):
    """Full selection run on two-class data from distinct 12-node graphs.

    Class 1 is sparser but has couplings twice as strong, so the classes
    differ in both topology and interaction scale while the field parameters
    (kappa, alpha, sigma) are shared. 400 full windows per class at length 64
    with 75% overlap; the three windows straddling the class boundary carry
    their majority label. The pairwise-distance report uses every 8th window
    so the quadratic pair count stays small.
    """
    if not fresh and seed in _PIPELINE_CACHE:
        return _PIPELINE_CACHE[seed]
    g0 = _er12(0.75, 1.0, seed=1000 + seed)
    g1 = _er12(0.30, 2.0, seed=2000 + seed)
    m0 = MaternModel(graph=g0, kappa=1.0, alpha=2.0, sigma=1.0)
    m1 = MaternModel(graph=g1, kappa=1.0, alpha=2.0, sigma=1.0)
    t = 399 * 16 + 64
    x0 = sample_field(m0, t, seed=2 * seed)
    x1 = sample_field(m1, t, seed=2 * seed + 1)
    series = LabeledSeries(
        samples=np.vstack([x0, x1]),
        labels=np.concatenate([np.zeros(t, dtype=int), np.ones(t, dtype=int)]),
    )
    wspec = WindowSpec(length=64, overlap=0.75)
    split = SplitSpec(train_frac=0.6, val_frac=0.2, test_frac=0.2, seed=seed)
    sel = select_beta(
        series, beta_grid=default_beta_grid(), window_grid=[wspec], split=split
    )
    windows = sliding_windows(series, wspec)
    labels = np.array([w.label for w in windows])
    parts = split_dataset(list(range(len(windows))), labels, split)
    test_feats = [
        power_features(
            empirical_covariance(windows[i].samples),
            sel.beta_star,
            label=int(labels[i]),
        )
        for i in parts.test_idx
    ]
    metrics = evaluate(sel.classifier, test_feats, token=parts.test_token)
    feats_sub = [
        power_features(empirical_covariance(w.samples), sel.beta_star, label=w.label)
        for w in windows[::8]
    ]
    report = class_distance_stats(feats_sub)
    out = (sel, metrics, report)
    if not fresh:
        _PIPELINE_CACHE[seed] = out
    return out


# ---------------------------------------------------------------------------
# checks


def test_01_quadrature_powers_match_eigendecomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_st = 0.0
    worst_ct = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 13))
        cond = float(np.exp(rng.uniform(0.0, np.log(8.0))))
        x = _random_spd(rng, dim, cond, scale=float(rng.uniform(0.5, 2.0)))
        for beta in (0.25, 0.5, 0.75):
            ref = spd_power_eig(x, -beta).values
            got = spd_power_stieltjes(x, beta, n_quad=400).values
            worst_st = max(worst_st, spectral_norm(got - ref))
        lo, hi = float(x.eigenvalues[0]), float(x.eigenvalues[-1])
        spec = circular_contour(lo, hi, 0.5 * lo, nodes=256)
        for beta in (-2.0, -0.5, 0.5, 1.5, 3.0):
            ref = spd_power_eig(x, -beta).values
            got = spd_power_contour(x, beta, spec).values
            worst_ct = max(worst_ct, spectral_norm(got - ref))
    elapsed = time.perf_counter() - t0
    ok = worst_st <= 1e-5 and worst_ct <= 1e-7 and elapsed <= 60.0
    _verdict(
        1,
        "quadrature powers match the eigendecomposition",
        ok,
        f"stieltjes {worst_st:.2e} <= 1e-5, contour {worst_ct:.2e} <= 1e-7, "
        f"{elapsed:.1f}s <= 60s",
    )
    assert ok


def test_02_inverse_alpha_power_recovers_interaction_operator():
    rng = np.random.default_rng(23)
    alphas = (0.5, 1.0, 2.0, 3.5)
    worst = 0.0
    support_ok = True
    for i in range(50):
        n = int(rng.integers(4, 13))
        p = float(rng.uniform(0.3, 0.9))
        kappa = float(rng.uniform(0.5, 2.0))
        sigma = float(rng.uniform(0.5, 2.0))
        graph = None
        for off in range(40):  # reject draws with an isolated node
            cand, _ = sample_inhomogeneous_er(
                n, 0, p, 0.0, 0.0, seed=3000 + i + 100000 * off
            )
            if cand.degrees().min() > 0:
                graph = cand
                break
        model = MaternModel(graph=graph, kappa=kappa, alpha=alphas[i % 4], sigma=sigma)
        op = interaction_operator(graph, kappa)
        rec = spd_power_eig(population_covariance(model), -1.0 / model.alpha).values
        target = sigma ** (-2.0 / model.alpha) * op
        worst = max(worst, spectral_norm(rec - target) / spectral_norm(op))
        off_entries = graph.adjacency[~np.eye(n, dtype=bool)]
        a_min = float(off_entries[off_entries > 0].min())
        upper = sigma ** (-2.0 / model.alpha) * a_min
        truth = (graph.adjacency > 0).astype(int)
        for frac in (1e-6, 0.25, 0.5, 0.99):
            support_ok &= np.array_equal(extract_signature(rec, frac * upper), truth)
    ok = worst <= 1e-8 and support_ok
    _verdict(
        2,
        "inverse-smoothness power recovers the interaction operator",
        ok,
        f"worst relative error {worst:.2e} <= 1e-8, "
        f"support exact at 4 thresholds x 50 models: {support_ok}",
    )
    assert ok


def test_03_certified_gates_imply_structural_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    alphas = (2.0, 0.5, 1.0)
    reports = []
    per_alpha = dict.fromkeys(alphas, 0)
    seed = 0
    while len(reports) < 500 and seed < 3000:
        alpha = alphas[seed % 3]
        u = float(rng.uniform(0.35, 0.85))
        sigma = float(rng.uniform(0.7, 1.4))
        inst = _gated_instance(seed, alpha, u, sigma=sigma)
        seed += 1
        if inst is None:
            continue
        reports.append(inst[2])
        per_alpha[alpha] += 1
    consistent = sum(r.empirically_consistent is True for r in reports)
    frac_cases = [
        r
        for r in reports
        if r.gate_fractional is not None and r.gate_fractional.satisfied
    ]
    bound_ok = sum(
        r.bound_fractional is not None
        and r.delta_spectral_norm <= r.bound_fractional
        for r in frac_cases
    )
    elapsed = time.perf_counter() - t0
    ok = (
        len(reports) >= 500
        and consistent == len(reports)
        and len(frac_cases) >= 50
        and bound_ok == len(frac_cases)
        and min(per_alpha.values()) >= 50
        and elapsed <= 600.0
    )
    _verdict(
        3,
        "gated instances are structurally consistent",
        ok,
        f"{consistent}/{len(reports)} consistent, "
        f"{bound_ok}/{len(frac_cases)} fractional cases within the norm bound, "
        f"alpha mix {per_alpha}, {elapsed:.1f}s <= 600s",
    )
    assert ok


def test_04_oscillation_and_cross_block_power_bounds():
    rng = np.random.default_rng(41)
    shift_exact = True
    osc_ok = True
    offdiag_ok = True
    power_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 11))
        # dyadic entries (k/64) make the flat-shift identity exact in floats
        m = np.triu(rng.integers(-64, 65, size=(n, n)) / 64.0)
        m = m + np.triu(m, 1).T
        c = float(rng.integers(-64, 65)) / 64.0
        shifted = m + c * (np.ones((n, n)) - np.eye(n))
        shift_exact &= osc(shifted) == osc(m)

        g = rng.standard_normal((n, n))
        g = (g + g.T) / 2
        nrm = spectral_norm(g)
        osc_ok &= osc(g) <= 2 * nrm
        offdiag_ok &= float(np.abs(g[~np.eye(n, dtype=bool)]).max()) <= nrm

        sidx = rng.permutation(n)[: int(rng.integers(1, n))]
        mask = np.zeros(n, dtype=bool)
        mask[sidx] = True
        cross = operator_norm(g[mask][:, ~mask])
        pk = g.copy()
        for k in range(2, 9):
            pk = pk @ g
            lhs = operator_norm(pk[mask][:, ~mask])
            power_ok &= lhs <= k * nrm ** (k - 1) * cross
    ok = shift_exact and osc_ok and offdiag_ok and power_ok
    _verdict(
        4,
        "oscillation and cross-block bounds hold without violation",
        ok,
        f"flat shift exact {shift_exact}, osc<=2|M| {osc_ok}, "
        f"offdiag<=|M| {offdiag_ok}, k-power bound {power_ok}, 100 draws each",
    )
    assert ok


def test_05_fractional_bound_constant_matches_quadrature():
    integrand = lambda t: t ** -0.5 / (1.0 + t) ** 3
    # split at 1 so the endpoint singularity sits at a boundary of one piece
    val = quad(integrand, 0.0, 1.0)[0] + quad(integrand, 1.0, np.inf)[0]
    impl = beta_integral_constant(0.5)
    closed = 3 * np.pi / 8
    rel_quad = abs(impl - val) / val
    rel_closed = abs(impl - closed) / closed
    ok = rel_quad <= 1e-8 and rel_closed <= 1e-8
    _verdict(
        5,
        "gamma-based integral constant matches direct quadrature",
        ok,
        f"vs quad {rel_quad:.2e}, vs 3*pi/8 {rel_closed:.2e}, both <= 1e-8",
    )
    assert ok


def test_06_selection_score_examples_and_symmetry():
    rng = np.random.default_rng(61)
    ok = s3_score(1.0, 1.0, 1.0, 1.0) == 1.0
    ok &= s3_score(0.5, 0.5, 0.5, 0.5) == 0.125
    for slot in range(4):
        for _ in range(25):
            vals = rng.random(4)
            vals[slot] = 0.0
            ok &= s3_score(*vals) == 0.0
    symmetric = True
    for _ in range(1000):
        vals = rng.random(4)
        base = s3_score(*vals)
        for perm in itertools.permutations(range(4)):
            symmetric &= s3_score(*vals[list(perm)]) == base
    ok &= symmetric
    _verdict(
        6,
        "selection score examples and exact permutation symmetry",
        ok,
        f"1/0/0.125 examples and 1000 tuples x 24 permutations: {ok}",
    )
    assert ok


def test_07_supervised_power_selection_pipeline():
    t0 = time.perf_counter()
    sel, metrics, _ = _pipeline_run(0)
    s3_at_one = next(r["s3"] for r in sel.per_beta_table if r["beta"] == 1.0)
    sel2, metrics2, _ = _pipeline_run(0, fresh=True)
    deterministic = json.dumps(selection_to_dict(sel), sort_keys=True) == json.dumps(
        selection_to_dict(sel2), sort_keys=True
    ) and metrics_to_dict(metrics) == metrics_to_dict(metrics2)
    elapsed = time.perf_counter() - t0
    ok = (
        metrics.accuracy >= 0.90
        and metrics.sensitivity is not None
        and metrics.sensitivity >= 0.85
        and sel.s3 >= s3_at_one
        and deterministic
        and elapsed <= 300.0
    )
    _verdict(
        7,
        "power selection yields an accurate held-out classifier",
        ok,
        f"beta*={sel.beta_star}, accuracy {metrics.accuracy:.3f} >= 0.90, "
        f"sensitivity {metrics.sensitivity:.3f} >= 0.85, "
        f"s3 {sel.s3:.3f} >= s3(beta=1) {s3_at_one:.3f}, "
        f"deterministic rerun {deterministic}, {elapsed:.1f}s <= 300s",
    )
    assert ok


def test_08_inter_class_distances_dominate_intra():
    wins = 0
    for seed in range(20):
        _, _, report = _pipeline_run(seed)
        mean_ok = all(
            v is not None and report.inter_mean > v for v in report.intra_mean
        )
        var_ok = all(
            v is not None and report.inter_variance > v
            for v in report.intra_variance
        )
        wins += mean_ok and var_ok
    ok = wins >= 18
    _verdict(
        8,
        "inter-class distances dominate intra-class in mean and variance",
        ok,
        f"{wins}/20 seeds >= 18",
    )
    assert ok


def test_09_air_metric_oracles():
    rng = np.random.default_rng(97)
    self_ok = True
    for _ in range(50):
        x = _random_spd(rng, int(rng.integers(2, 9)), float(rng.uniform(1.0, 50.0)))
        self_ok &= air_distance(x, x) <= 1e-12
    eye2 = SpdMatrix(np.eye(2))
    scaled = SpdMatrix(4.0 * np.eye(2))
    iso_ok = abs(air_distance(eye2, scaled) - np.sqrt(2.0) * np.log(4.0)) <= 1e-9
    cong_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        x = _random_spd(rng, dim, float(rng.uniform(1.0, 100.0)))
        y = _random_spd(rng, dim, float(rng.uniform(1.0, 100.0)))
        q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        g = q1 @ (rng.uniform(0.5, 2.0, dim)[:, None] * q2)
        gx = g @ x.values @ g.T
        gy = g @ y.values @ g.T
        before = air_distance(x, y)
        after = air_distance(SpdMatrix((gx + gx.T) / 2), SpdMatrix((gy + gy.T) / 2))
        cong_ok &= abs(after - before) <= 1e-8
    tri_ok = True
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        x, y, z = (
            _random_spd(rng, dim, float(rng.uniform(1.0, 50.0))) for _ in range(3)
        )
        tri_ok &= air_distance(x, z) <= air_distance(x, y) + air_distance(y, z) + 1e-8
    ok = self_ok and iso_ok and cong_ok and tri_ok
    _verdict(
        9,
        "manifold distance oracles",
        ok,
        f"self {self_ok}, sqrt(2)*log4 {iso_ok}, congruence x100 {cong_ok}, "
        f"triangle x200 {tri_ok}",
    )
    assert ok


def test_10_gmm_signature_recovery_on_gated_instances():
    rng = np.random.default_rng(101)
    hits = 0
    n = 0
    ll_monotone = True
    seed = 0
    while n < 200 and seed < 2000:
        u = float(rng.uniform(0.35, 0.85))
        inst = _gated_instance(20000 + seed, 2.0, u)
        seed += 1
        if inst is None:
            continue
        model, part, _ = inst
        n += 1
        cov = population_covariance(model)
        s = list(part.observed)
        rec = spd_power_eig(
            SpdMatrix(cov.values[np.ix_(s, s)]), -1.0 / model.alpha
        )
        adjacency, _, fit = signature_from_matrix(rec)
        truth = (model.graph.adjacency[np.ix_(s, s)] > 0).astype(int)
        hits += support_recovery_metrics(adjacency, truth).f1 == 1.0
        trace = np.asarray(fit.ll_trace)
        drops = np.diff(trace) / np.maximum(1.0, np.abs(trace[:-1]))
        ll_monotone &= bool(drops.size == 0 or drops.min() >= -1e-12)
    ok = n >= 200 and hits / n >= 0.95 and ll_monotone
    _verdict(
        10,
        "mixture-thresholded signatures recover the observed support",
        ok,
        f"f1=1 on {hits}/{n} gated instances (>= 95%), "
        f"log-likelihood monotone {ll_monotone}",
    )
    assert ok


# ---------------------------------------------------------------------------
# check 11: every CLI verb reruns byte-identically


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _trees_match(a, b):
    """Byte equality of two run dirs, ignoring only the manifest timestamp."""
    rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if rel_a != rel_b or not rel_a:
        return False
    for rel in rel_a:
        fa, fb = a / rel, b / rel
        if rel.name == "manifest.json":
            ma = json.loads(fa.read_text())
            mb = json.loads(fb.read_text())
            ma.pop("created_utc", None)
            mb.pop("created_utc", None)
            if ma != mb:
                return False
        elif fa.read_bytes() != fb.read_bytes():
            return False
    return True


def _run_pair(tmp_path, verb, config, tag):
    """Run a verb twice from one config; return (identical, first run dir)."""
    cfg = _write_cfg(tmp_path, f"{tag}.json", config)
    dirs = []
    for side in ("a", "b"):
        out = tmp_path / f"{tag}-{side}"
        if cli_main([verb, "--config", cfg, "--out", str(out)]) != 0:
            return False, None
        dirs.append(out)
    return _trees_match(*dirs), dirs[0]


def test_11_cli_reruns_are_byte_identical(tmp_path):
    def er_class(p_obs, graph_seed):
        return {
            "graph": {
                "type": "er",
                "n_obs": 5,
                "n_lat": 3,
                "p_obs": p_obs,
                "p_lat": 0.5,
                "p_cross": 0.4,
                "seed": graph_seed,
            },
            "model": {"kappa": 1.0, "alpha": 1.0, "sigma": 1.0},
        }

    split = {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2, "seed": 1}
    failures = []

    def check(verb, config, tag=None):
        same, first = _run_pair(tmp_path, verb, config, tag or verb)
        if not same:
            failures.append(verb)
        return first

    check(
        "simulate",
        {
            "schema_version": "1",
            "graph": {
                "type": "explicit",
                "n": 2,
                "edges": [[0, 1, 0.5]],
                "observed": [0],
            },
            "model": {"kappa": 1.0, "alpha": 1.0, "sigma": 1.0},
            "samples": {"n_samples": 8, "seed": 3},
        },
    )
    verify_run = check(
        "verify",
        {
            "schema_version": "1",
            "graph": {
                "type": "er",
                "n_obs": 5,
                "n_lat": 3,
                "p_obs": 0.5,
                "p_lat": 0.9,
                "p_cross": 0.4,
            },
            "model": {"kappa": 1.0, "alpha": 2.0, "sigma": 1.0},
            "seeds": {"start": 0, "count": 3},
        },
    )
    pipeline_run = check(
        "pipeline",
        {
            "schema_version": "1",
            "classes": [er_class(0.9, 11), er_class(0.3, 12)],
            "series": {"samples_per_class": 192, "seed": 0},
            "window_grid": [{"length": 32, "overlap": 0.5}],
            "beta_grid": [0.5, 1.0],
            "split": split,
        },
    )
    series_csv = str(pipeline_run / "series.csv") if pipeline_run else ""
    extract_run = check(
        "extract",
        {
            "schema_version": "1",
            "series_csv": series_csv,
            "window": {"length": 32, "overlap": 0.5},
            "beta": 0.5,
        },
    )
    select_run = check(
        "select",
        {
            "schema_version": "1",
            "series_csv": series_csv,
            "window_grid": [{"length": 32, "overlap": 0.5}],
            "beta_grid": [0.5, 1.0],
            "split": split,
        },
    )
    check(
        "evaluate",
        {
            "schema_version": "1",
            "series_csv": series_csv,
            "selection_dir": str(select_run) if select_run else "",
            "split": split,
        },
    )
    features_dir = str(extract_run / "features") if extract_run else ""
    check("geometry", {"schema_version": "1", "features_dir": features_dir})
    check(
        "signatures",
        {"schema_version": "1", "features_dir": features_dir, "mode": "class-mean"},
    )
    check(
        "report",
        {"schema_version": "1", "runs": [str(verify_run) if verify_run else ""]},
    )
    ok = not failures
    _verdict(
        11,
        "every CLI verb reruns byte-identically",
        ok,
        "9 verbs compared" if ok else f"differing or failing verbs: {failures}",
    )
    assert ok
