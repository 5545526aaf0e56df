"""The saturation helper process: same bits as the serial path, typed
errors that name the step, recovery when the helper dies, and no process
left behind."""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sps

from dgflow import assembly, solver
from dgflow.assembly import LinearSystem, SchemeConfig
from dgflow.dg_core import DGField
from dgflow.manufactured import gravity_case
from dgflow.mesh import build_uniform_mesh
from dgflow.solver import PhaseState, SingularSystemError, advance, initialize

N = 8
TAU = 1 / 1024

needs_helper = pytest.mark.skipif(not solver._can_run_helper(),
                                  reason="the helper needs POSIX and two usable CPUs")


@pytest.fixture(scope="module")
def case():
    return gravity_case()


@pytest.fixture(scope="module")
def start(case):
    return initialize(case, build_uniform_mesh(N, N))


@pytest.fixture
def fresh_helper():
    """No helper before the test, and none left after it."""
    _shut_down()
    yield
    _shut_down()


def _shut_down():
    if solver._helper is not None:
        solver._helper.close()
        solver._helper = None


def _serving_helper():
    """The helper, started if need be."""
    assert isinstance(solver._helper_for(), solver._Helper)
    return solver._helper


def _solve(assemble, *args):
    raw = assemble(*args, constrain=False)
    matrix, rhs = assembly.apply_dirichlet(raw.matrix, raw.rhs, raw.constrained_dofs,
                                           raw.constrained_values)
    constrained = LinearSystem(matrix, rhs, raw.constrained_dofs, raw.constrained_values)
    return solver.solve_linear(constrained)


def _replay(state, tau, cfg, case):
    """``advance`` from the public calls, in the serial order."""
    mesh = state.mesh
    t_next = state.time + tau
    coeffs = assembly.LaggedCoefficients(mesh, case.fluids, state.sat_a, state.sat_v)
    p_new = DGField.from_vector(mesh, _solve(assembly.assemble_pressure, state, mesh, cfg,
                                             case, t_next, coeffs), "pressure")
    velocity = assembly.rt0_project(p_new, state, mesh, cfg, coeffs)
    sa_new = DGField.from_vector(mesh, _solve(assembly.assemble_aqueous, state, p_new,
                                              velocity, mesh, cfg, case, tau, t_next,
                                              coeffs), "sat_a")
    sv_new = DGField.from_vector(mesh, _solve(assembly.assemble_vapor, state, p_new, sa_new,
                                              velocity, mesh, cfg, case, tau, t_next,
                                              coeffs), "sat_v")
    return PhaseState(p_new, sa_new, sv_new, state.step + 1, t_next)


def _assert_same_bits(a, b):
    for x, y in ((a.pressure, b.pressure), (a.sat_a, b.sat_a), (a.sat_v, b.sat_v)):
        assert np.array_equal(x.coeffs, y.coeffs)


def test_advance_matches_serial_replay(case, start):
    cfg = SchemeConfig()
    stepped = replayed = start
    for _ in range(2):
        stepped = advance(stepped, TAU, cfg, case)
        replayed = _replay(replayed, TAU, cfg, case)
        _assert_same_bits(stepped, replayed)
    if solver._can_run_helper():
        assert solver._helper is not None and solver._helper.alive()


@needs_helper
def test_16x16_step_is_solved_in_the_helper(case, fresh_helper):
    state = initialize(case, build_uniform_mesh(16, 16))
    cfg = SchemeConfig()
    _assert_same_bits(advance(state, TAU, cfg, case), _replay(state, TAU, cfg, case))
    assert solver._helper is not None and solver._helper.alive()


def test_one_usable_cpu_stays_in_process(case, start, fresh_helper, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg = SchemeConfig()
    _assert_same_bits(advance(start, TAU, cfg, case), _replay(start, TAU, cfg, case))
    assert solver._helper is None


def test_one_usable_cpu_builds_the_saturations_from_the_public_calls(case, start,
                                                                   fresh_helper,
                                                                   monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("assemble_aqueous", "assemble_vapor", "_saturation_matrix"):
        monkeypatch.setattr(assembly, name, counted(name, getattr(assembly, name)))
    advance(start, TAU, SchemeConfig(), case)
    assert calls == ["assemble_aqueous", "assemble_vapor"]
    assert solver._helper is None


def test_helper_that_cannot_start_leaves_the_step_in_process(case, start, fresh_helper,
                                                            monkeypatch):
    # any error while the helper starts (say, a Popen argument this Python
    # lacks) leaves the saturations to this process, with the same bits
    def fail(*args, **kwargs):
        raise TypeError("unexpected keyword argument")

    monkeypatch.setattr(solver.subprocess, "Popen", fail)
    monkeypatch.setattr(solver, "_helper_failed", False)
    cfg = SchemeConfig()
    _assert_same_bits(advance(start, TAU, cfg, case), _replay(start, TAU, cfg, case))
    assert solver._helper is None


@needs_helper
def test_factor_failure_in_helper_names_the_step(case, start, fresh_helper, monkeypatch):
    # the helper gets zero matrices, which SuperLU cannot factor
    helper = _serving_helper()
    send = solver._Helper.factor

    def factor(self, matrices):
        send(self, {key: sps.csr_matrix((np.zeros_like(A.data), A.indices, A.indptr),
                                        shape=A.shape) for key, A in matrices.items()})

    monkeypatch.setattr(solver._Helper, "factor", factor)
    with pytest.raises(SingularSystemError, match=r"^step 0 -> 1: .*singular"):
        advance(start, TAU, SchemeConfig(), case)
    assert solver._helper is helper and helper.alive()


@needs_helper
def test_helper_killed_between_steps(case, start, fresh_helper):
    cfg = SchemeConfig()
    killed = _serving_helper()
    first = advance(start, TAU, cfg, case)
    expected = advance(first, TAU, cfg, case)
    killed.process.kill()
    killed.process.wait(timeout=5)
    _assert_same_bits(advance(first, TAU, cfg, case), expected)
    assert solver._helper is not killed and solver._helper.alive()


@needs_helper
def test_helper_ignores_interrupts(case, start, fresh_helper):
    # a terminal's ^C reaches the whole foreground process group; only the
    # caller should see it
    helper = _serving_helper()
    os.kill(helper.process.pid, signal.SIGINT)
    time.sleep(0.2)
    assert helper.alive()
    cfg = SchemeConfig()
    _assert_same_bits(advance(start, TAU, cfg, case), _replay(start, TAU, cfg, case))
    assert solver._helper is helper


@needs_helper
def test_helper_lost_during_a_step(case, start, fresh_helper, monkeypatch):
    # the helper dies after taking the matrices: both systems are built
    # again and solved in this process
    cfg = SchemeConfig()
    _serving_helper()
    expected = advance(start, TAU, cfg, case)
    send_then_die = solver._Helper.factor

    def factor(self, matrices):
        send_then_die(self, matrices)
        self.process.kill()
        self.process.wait(timeout=5)

    monkeypatch.setattr(solver._Helper, "factor", factor)
    _assert_same_bits(advance(start, TAU, cfg, case), expected)


# -- one pattern per hand-over batch ----------------------------------------------

class _Recorder:
    """A pipe end that keeps what is sent through it."""

    def __init__(self):
        self.objects, self.arrays = [], []

    def send(self, obj):
        self.objects.append(obj)

    def send_bytes(self, buf):
        self.arrays.append(bytes(buf))


def _recording_helper(conn=None):
    """A helper object with no process: what it sends goes to ``conn``."""
    helper = object.__new__(solver._Helper)
    helper.conn, helper.owner = conn or _Recorder(), None
    return helper


def _batch(k, n=3):
    """``k`` diagonally dominant matrices on the pattern of an n x n mesh."""
    pattern = assembly._groups(build_uniform_mesh(n, n)).pattern
    diagonal = pattern.indices == np.repeat(np.arange(n * n * 4), np.diff(pattern.indptr))
    return pattern, {key: assembly._on_pattern(pattern, np.where(diagonal, 100.0 + key, -1.0))
                     for key in range(k)}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_batch_carries_the_pattern_once(k):
    pattern, matrices = _batch(k)
    helper = _recording_helper()
    helper.factor(matrices)
    (header,) = helper.conn.objects
    assert header[:2] == ("factor", list(range(k))) and len(header[2]) == 2 + k
    assert helper.conn.arrays == [pattern.indptr.tobytes(), pattern.indices.tobytes()] + [
        A.data.tobytes() for A in matrices.values()]


@pytest.mark.parametrize("copied", ["indptr", "indices"])
def test_batch_on_two_patterns_is_refused_before_sending(copied):
    pattern, matrices = _batch(2)
    arrays = {"indptr": pattern.indptr, "indices": pattern.indices}
    arrays[copied] = arrays[copied].copy()   # equal values, other memory
    matrices[1] = sps.csr_matrix((matrices[1].data, arrays["indices"], arrays["indptr"]),
                                 shape=pattern.shape)
    helper = _recording_helper()
    with pytest.raises(ValueError, match="share one pattern"):
        helper.factor(matrices)
    assert helper.conn.objects == [] and helper.conn.arrays == []


def test_served_batch_shares_one_pattern_and_solves_as_here(monkeypatch):
    # the helper's loop, run on a thread of this process: every matrix of a
    # batch is built on the same received index arrays, and each solve gives
    # the bits of solve_linear
    pattern, matrices = _batch(2)
    served = []
    factorization = solver._Factorization

    def spy(matrix):
        served.append(matrix)
        return factorization(matrix)

    monkeypatch.setattr(solver, "_Factorization", spy)
    parent, child = multiprocessing.Pipe()
    loop = threading.Thread(target=solver._serve, args=(os.dup(child.fileno()),))
    child.close()
    loop.start()
    try:
        assert parent.recv() == "ready"
        helper = _recording_helper(parent)
        helper.factor(matrices)
        rhs = np.linspace(-1.0, 1.0, pattern.shape[0])
        solved = {key: helper.solve(key, rhs) for key in matrices}
    finally:
        parent.close()
        loop.join(timeout=30)
    assert not loop.is_alive()
    first, second = served
    for a, b in ((first.indptr, second.indptr), (first.indices, second.indices)):
        assert a.ctypes.data == b.ctypes.data and a.shape == b.shape
    for key, A in matrices.items():
        expected = solver.solve_linear(LinearSystem(A, rhs, np.empty(0, dtype=np.int64),
                                                    np.empty(0)))
        assert np.array_equal(solved[key], expected)


# -- no process left behind -------------------------------------------------------

SCRIPT = f"""
import sys, time
from dgflow import solver, gravity_case, build_uniform_mesh, initialize, advance, SchemeConfig
case = gravity_case()
advance(initialize(case, build_uniform_mesh({N}, {N})), {TAU}, SchemeConfig(), case)
print(solver._helper.process.pid, flush=True)
if sys.argv[1] == "wait":
    time.sleep(60)
"""


def _spawn(mode):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", SCRIPT, mode], env=env,
                            stdout=subprocess.PIPE, text=True)


def _running(pid) -> bool:
    """Whether ``pid`` is a live process (an exited one waiting to be
    reaped does not count)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _gone_within(pid, seconds) -> bool:
    deadline = time.monotonic() + seconds
    while _running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


needs_proc = pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(),
                                reason="reads process states from /proc")


@needs_helper
@needs_proc
def test_no_helper_after_normal_exit():
    proc = _spawn("exit")
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert not _running(int(out.split()[-1]))


@needs_helper
@needs_proc
def test_helper_exits_after_parent_is_killed():
    proc = _spawn("wait")
    pid = None
    try:
        pid = int(proc.stdout.readline())
        assert _running(pid)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        assert _gone_within(pid, 2.0)
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
        if pid is not None and _running(pid):
            os.kill(pid, signal.SIGKILL)
