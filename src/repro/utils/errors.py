"""Exception hierarchy for the repro package, and the checks configs
run on their values.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without catching programming errors.
"""

from dataclasses import field, fields

INF = float("inf")


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    An error about one config value names that ``field`` and what the
    field ``expects`` (see :func:`require`), so a front end can restate
    it in its own terms: the CLI names the flag the value came from.
    """

    def __init__(self, message: str = "", field: str | None = None,
                 expects: str = ""):
        super().__init__(message)
        self.field = field
        self.expects = expects


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class CapacityError(ReproError):
    """A resource (GPU memory, queue slot, cache budget) was exceeded."""


class DeadlockError(ReproError):
    """The execution engine detected a communication deadlock.

    Raised when concurrently launched collective kernels block each
    other permanently (paper §5, Figure 8).  Enabling centralized
    communication coordination (CCC) prevents this.
    """

    def __init__(self, message: str, waiting: dict | None = None):
        super().__init__(message)
        #: map of gpu id -> collective tag it is blocked on (diagnostics)
        self.waiting = dict(waiting or {})


class PipelineStall(DeadlockError):
    """The pipeline wedged on a bounded queue whose other side is gone.

    Raised instead of a bare :class:`DeadlockError` when the engine can
    prove the wedge is a *stall* — a producer blocked on a full queue
    whose consumer has exited (or a consumer starved by dead
    producers) — so the failure is diagnosable: the message names the
    dead worker(s), the queue, and every process blocked on it.
    Subclasses :class:`DeadlockError` so existing handlers still catch
    it.
    """

    def __init__(self, message: str, waiting: dict | None = None,
                 dead: tuple = ()):
        super().__init__(message, waiting)
        #: names of the exited workers the blocked processes depend on
        self.dead = tuple(dead)


class InvariantViolation(ReproError):
    """A simulation invariant was broken (see ``repro.chaos.invariants``).

    Raised by the :class:`~repro.chaos.invariants.InvariantChecker`
    the moment a check fails: non-monotone clock, queue over capacity,
    out-of-order CCC launch, link-byte non-conservation, or a batch
    lost without an accounted cause.
    """

    def __init__(self, message: str, invariant: str = ""):
        super().__init__(message)
        #: short name of the violated invariant (e.g. ``"queue-bound"``)
        self.invariant = invariant


class PartitionError(ReproError):
    """Graph partitioning failed or produced an invalid partition."""


class WorkerError(ReproError):
    """A run task failed inside a parallel worker process.

    The child's formatted traceback is embedded in the message (and
    kept on :attr:`child_traceback`) so a fan-out failure reads the
    same as it would have when run serially.
    """

    def __init__(self, message: str, label: str = "",
                 child_traceback: str = ""):
        super().__init__(message)
        #: label of the failing :class:`repro.parallel.RunSpec`
        self.label = label
        #: the traceback as formatted in the worker process
        self.child_traceback = child_traceback


def show(value) -> str:
    """``value`` as an error message quotes it."""
    if isinstance(value, float):
        return f"{value:g}"
    return repr(value) if isinstance(value, str) else str(value)


def require(ok: bool, field: str, expects: str, value,
            error: type = ConfigError) -> None:
    """Raise ``error`` naming ``field``, what it ``expects`` and the
    ``value`` given, unless ``ok``.  Write ``ok`` so that NaN fails it
    (``0 < x < INF``, never ``not x <= 0``)."""
    if not ok:
        raise error(f"{field} expects {expects}, got {show(value)}",
                    field, expects)


def count(field: str, value: int, minimum: int = 1) -> None:
    """``value`` must be a count >= ``minimum``."""
    require(value >= minimum, field, f"a count >= {minimum}", value)


def positive(field: str, value: float) -> None:
    """``value`` must be finite and > 0 (NaN and inf fail)."""
    require(0 < value < INF, field, "a positive finite value", value)


def non_negative(field: str, value: float) -> None:
    """``value`` must be finite and >= 0 (NaN and inf fail)."""
    require(0 <= value < INF, field, "a finite value >= 0", value)


def nested(build, names: dict):
    """``build()``: a config made from fields of an outer one, whose
    errors about a field in ``names`` are restated under the outer
    config's name for that field (``names[field]``)."""
    try:
        return build()
    except ConfigError as err:
        outer = names.get(err.field)
        if outer is None:
            raise
        raise ConfigError(outer + str(err)[len(err.field):], outer,
                          err.expects) from None


def check_choices(config) -> None:
    """Every field of dataclass ``config`` declared with
    :func:`one_of` holds one of its choices."""
    for f in fields(config):
        choices = f.metadata.get("choices")
        if choices is not None:
            value = getattr(config, f.name)
            require(value in choices, f.name,
                    f"one of {', '.join(choices)}", value)


def one_of(choices: tuple, default: str):
    """A dataclass field limited to ``choices`` (a module constant):
    :func:`check_choices` enforces them and the CLI offers them."""
    return field(default=default, metadata={"choices": choices})
