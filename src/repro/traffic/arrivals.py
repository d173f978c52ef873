"""Composable, seeded open-loop arrival processes.

An :class:`ArrivalProcess` is a deterministic stream of monotonically
non-decreasing arrival times that the client load stage
(:mod:`repro.protocols.runtime.load`) drains lazily: nothing in the
simulator ticks per arrival, the process is only consulted when a batch
forms. Every random draw comes from the ``random.Random`` stream the
process was constructed with, so ``(seed, scenario)`` pins the full
arrival sequence bit-for-bit.

Three process families cover the traffic regimes production BFT
deployments see:

* :class:`ConstantRate` — one arrival every ``1/rate`` seconds. This is
  the pre-traffic-subsystem metronome, kept float-op-for-float-op
  identical so existing seeded runs reproduce byte-identically.
* :class:`PoissonProcess` — (in)homogeneous Poisson arrivals over a
  :class:`RateCurve` via Lewis–Shedler thinning: exponential candidate
  gaps at the curve's peak rate, accepted with probability
  ``rate(t)/peak``. Diurnal curves and regional flash crowds are just
  different curves under the same sampler.
* :class:`MMPPProcess` — a Markov-modulated Poisson process cycling
  through ``(rate, mean_holding)`` states with exponential holding
  times: the standard model for bursty, self-similar-looking internet
  traffic.
"""

from __future__ import annotations

import abc
import math
import random
from typing import List, Optional, Sequence, Tuple


class ArrivalProcess(abc.ABC):
    """A deterministic stream of non-decreasing arrival times."""

    #: Short identifier used in scenario artifacts.
    name: str = "process"

    @abc.abstractmethod
    def drop_until(self, horizon: float) -> int:
        """Discard arrivals strictly before ``horizon``; return the count.

        Models client-side timeouts: arrivals older than the admission
        queue are never materialised into transactions.
        """

    @abc.abstractmethod
    def take_until(self, now: float, max_n: Optional[int] = None) -> List[float]:
        """Consume and return the arrival times ``<= now`` (at most
        ``max_n`` of them; ``None`` means unbounded)."""


class ConstantRate(ArrivalProcess):
    """One arrival exactly every ``1/rate`` seconds.

    The arrival clock accumulates with the same sequence of float
    additions (``next += 1.0/rate`` per arrival, one fused
    ``missed/rate`` add per aging pass) as the pre-subsystem
    ``ClientLoad`` hot loop, which is what keeps constant-rate runs
    bit-identical to their historical results.
    """

    name = "constant"

    __slots__ = ("rate", "step", "next_arrival")

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("offered rate must be positive")
        self.rate = rate
        self.step = 1.0 / rate
        self.next_arrival = 0.0

    def drop_until(self, horizon: float) -> int:
        next_arrival = self.next_arrival
        if next_arrival >= horizon:
            return 0
        missed = int((horizon - next_arrival) * self.rate)
        if missed <= 0:
            return 0
        self.next_arrival = next_arrival + missed / self.rate
        return missed

    def take_until(self, now: float, max_n: Optional[int] = None) -> List[float]:
        times: List[float] = []
        append = times.append
        step = self.step
        next_arrival = self.next_arrival
        n = 0
        while next_arrival <= now:
            if n == max_n:  # max_n=None never equals an int: no cap
                break
            append(next_arrival)
            n += 1
            next_arrival += step
        self.next_arrival = next_arrival
        return times


class _GeneratedProcess(ArrivalProcess):
    """Shared pull machinery for processes that draw arrivals one by one.

    Subclasses implement :meth:`_generate` (the next arrival strictly
    after the internal cursor); the one-slot ``_pending`` cache makes the
    drained-but-not-yet-due arrival survive across ``take_until`` calls,
    so chunked draining produces the identical time sequence as a single
    drain — the float-accumulation determinism the load stage relies on.

    ``take_until`` is the hot call (once per batch, every arrival of the
    run passes through it), so each subclass writes it as one loop with
    its draw inlined: the same draws and float expressions, in the same
    order, as pulling arrival by arrival through :meth:`peek`, which
    stays the reference and serves :meth:`drop_until`. Like that pull,
    it always leaves the first arrival it did not return in ``_pending``.
    """

    _pending: Optional[float]

    def __init__(self) -> None:
        self._pending = None

    @abc.abstractmethod
    def _generate(self) -> float:
        """Produce the next arrival time (advances the internal cursor)."""

    def peek(self) -> float:
        pending = self._pending
        if pending is None:
            pending = self._pending = self._generate()
        return pending

    def drop_until(self, horizon: float) -> int:
        dropped = 0
        while self.peek() < horizon:
            self._pending = None
            dropped += 1
        return dropped


# ----------------------------------------------------------------------
# Rate curves (for inhomogeneous Poisson arrivals)
# ----------------------------------------------------------------------


class RateCurve(abc.ABC):
    """Offered rate as a function of simulated time, with a known peak."""

    @abc.abstractmethod
    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t`` (txns/second)."""

    @property
    @abc.abstractmethod
    def peak(self) -> float:
        """An upper bound on :meth:`rate` over the whole run (> 0)."""


class ConstantCurve(RateCurve):
    """A flat rate."""

    def __init__(self, value: float) -> None:
        if value <= 0:
            raise ValueError("rate must be positive")
        self.value = value

    def rate(self, t: float) -> float:
        return self.value

    @property
    def peak(self) -> float:
        return self.value


class DiurnalCurve(RateCurve):
    """A compressed day: sinusoidal rate between trough and crest.

    ``rate(t) = base * (1 + amplitude * sin(2*pi*(t + phase)/period))``.
    ``amplitude`` must stay below 1 so the trough rate remains positive
    (thinning requires a positive acceptance probability everywhere).
    """

    def __init__(
        self,
        base: float,
        amplitude: float = 0.5,
        period: float = 1.0,
        phase: float = 0.0,
    ) -> None:
        if base <= 0:
            raise ValueError("base rate must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if period <= 0:
            raise ValueError("period must be positive")
        self.base = base
        self.amplitude = amplitude
        self.period = period
        self.phase = phase

    def rate(self, t: float) -> float:
        return self.base * (
            1.0
            + self.amplitude * math.sin(2.0 * math.pi * (t + self.phase) / self.period)
        )

    @property
    def peak(self) -> float:
        return self.base * (1.0 + self.amplitude)


class FlashCrowdCurve(RateCurve):
    """A regional flash crowd: trapezoid spike over a quiet base rate.

    Outside ``[start, start + duration]`` the rate is ``base``; inside,
    it ramps linearly to ``spike`` over ``ramp`` seconds, holds, and
    ramps back down over the final ``ramp`` seconds of the window.
    """

    def __init__(
        self,
        base: float,
        spike: float,
        start: float,
        duration: float,
        ramp: float = 0.05,
    ) -> None:
        if base <= 0 or spike <= 0:
            raise ValueError("rates must be positive")
        if duration <= 0 or ramp < 0 or 2 * ramp > duration:
            raise ValueError("need 0 <= 2*ramp <= duration, duration > 0")
        self.base = base
        self.spike = spike
        self.start = start
        self.duration = duration
        self.ramp = ramp

    def rate(self, t: float) -> float:
        start, duration, ramp = self.start, self.duration, self.ramp
        if t <= start or t >= start + duration:
            return self.base
        if ramp > 0 and t < start + ramp:
            return self.base + (self.spike - self.base) * (t - start) / ramp
        if ramp > 0 and t > start + duration - ramp:
            return self.base + (self.spike - self.base) * (
                (start + duration - t) / ramp
            )
        return self.spike

    @property
    def peak(self) -> float:
        return max(self.base, self.spike)


# ----------------------------------------------------------------------
# Poisson / MMPP processes
# ----------------------------------------------------------------------


class PoissonProcess(_GeneratedProcess):
    """(In)homogeneous Poisson arrivals over a :class:`RateCurve`.

    Lewis–Shedler thinning: candidate gaps are exponential at the
    curve's ``peak`` rate; a candidate at time ``t`` is accepted with
    probability ``rate(t)/peak``. Exact for any curve bounded by
    ``peak``, and every candidate consumes exactly two draws from the
    stream (gap, acceptance), so the sequence is reproducible from the
    stream alone.
    """

    name = "poisson"

    def __init__(self, curve: RateCurve, rng: random.Random) -> None:
        super().__init__()
        if isinstance(curve, (int, float)):
            curve = ConstantCurve(float(curve))
        self.curve = curve
        self.rng = rng
        self._t = 0.0
        self._peak = curve.peak
        if self._peak <= 0:
            raise ValueError("curve peak rate must be positive")

    def _generate(self) -> float:
        rng_random = self.rng.random
        rate = self.curve.rate
        peak = self._peak
        t = self._t
        while True:
            t += -math.log(1.0 - rng_random()) / peak
            if rng_random() * peak <= rate(t):
                self._t = t
                return t

    def take_until(self, now: float, max_n: Optional[int] = None) -> List[float]:
        times: List[float] = []
        append = times.append
        rng_random = self.rng.random
        rate = self.curve.rate
        peak = self._peak
        log = math.log
        t = self._t
        pending = self._pending
        n = 0
        while True:
            if pending is None:
                while True:
                    t += -log(1.0 - rng_random()) / peak
                    if rng_random() * peak <= rate(t):
                        break
                pending = t
            if pending > now or n == max_n:  # max_n=None: no cap
                break
            append(pending)
            pending = None
            n += 1
        self._t = t
        self._pending = pending
        return times


class MMPPProcess(_GeneratedProcess):
    """Markov-modulated Poisson arrivals (bursty internet traffic).

    ``states`` is a sequence of ``(rate, mean_holding)`` pairs the
    process cycles through in order; each visit holds for an exponential
    time with the given mean, and arrivals inside a state are Poisson at
    the state's rate (a zero rate models an idle state). Crossing a
    state boundary discards the in-flight candidate gap and redraws at
    the new rate — valid because the exponential is memoryless.
    """

    name = "mmpp"

    def __init__(
        self,
        states: Sequence[Tuple[float, float]],
        rng: random.Random,
    ) -> None:
        super().__init__()
        states = tuple((float(rate), float(hold)) for rate, hold in states)
        if not states:
            raise ValueError("need at least one (rate, mean_holding) state")
        if all(rate <= 0 for rate, _ in states):
            raise ValueError("at least one state needs a positive rate")
        for rate, hold in states:
            if rate < 0 or hold <= 0:
                raise ValueError("rates must be >= 0 and holdings > 0")
        self.states = states
        self.rng = rng
        self._state = 0
        self._t = 0.0
        self._state_until = -math.log(1.0 - rng.random()) * states[0][1]

    def _generate(self) -> float:
        rng_random = self.rng.random
        states = self.states
        t = self._t
        while True:
            rate = states[self._state][0]
            if rate > 0:
                candidate = t + (-math.log(1.0 - rng_random()) / rate)
                if candidate <= self._state_until:
                    self._t = candidate
                    return candidate
            # Advance to the state boundary and switch.
            t = self._state_until
            self._state = (self._state + 1) % len(states)
            hold = states[self._state][1]
            self._state_until = t + (-math.log(1.0 - rng_random()) * hold)

    def take_until(self, now: float, max_n: Optional[int] = None) -> List[float]:
        times: List[float] = []
        append = times.append
        rng_random = self.rng.random
        states = self.states
        log = math.log
        t = self._t
        state = self._state
        state_until = self._state_until
        pending = self._pending
        n = 0
        while True:
            if pending is None:
                while True:
                    rate = states[state][0]
                    if rate > 0:
                        candidate = t + (-log(1.0 - rng_random()) / rate)
                        if candidate <= state_until:
                            break
                    t = state_until
                    state = (state + 1) % len(states)
                    hold = states[state][1]
                    state_until = t + (-log(1.0 - rng_random()) * hold)
                t = pending = candidate
            if pending > now or n == max_n:  # max_n=None: no cap
                break
            append(pending)
            pending = None
            n += 1
        self._t = t
        self._state = state
        self._state_until = state_until
        self._pending = pending
        return times


__all__ = [
    "ArrivalProcess",
    "ConstantCurve",
    "ConstantRate",
    "DiurnalCurve",
    "FlashCrowdCurve",
    "MMPPProcess",
    "PoissonProcess",
    "RateCurve",
]
