"""HTTP load: request schedules and the closed-loop generator.

The generator is one process with at most two client threads, each on
its own keep-alive ``http.client`` connection — a closed loop: a
thread sends its next request only after the previous response has
been read.  The schedule is a seeded iterator shared by both threads
under a lock, so every run sends the same sequence.  A request is timed
from the first byte sent to the last byte read; the response is then
decoded and checked against the oracle outside the timed interval.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from inputs import DEEP_SHARE, Inputs, anfa_shape, evolve_shape
from tracing import Recorder

HEADERS = {"Content-Type": "application/json"}
CONNECTIONS = 2


@dataclass
class Request:
    kind: str                       # map | invert | translate | evolve
    path: str
    body: bytes
    check: Callable[[dict], bool]


@dataclass
class Record:
    index: int
    request: Request
    start: float
    end: float
    ok: bool

    @property
    def latency(self) -> float:
        return self.end - self.start


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _document_check(expected: str) -> Callable[[dict], bool]:
    def check(payload: dict) -> bool:
        result = payload.get("result", {})
        return result.get("ok") is True and result.get("output") == expected
    return check


class Requests:
    """Prebuilt request bodies for every pool item of one run."""

    def __init__(self, inputs: Inputs) -> None:
        fp = {role: sigma.fingerprint()
              for role, sigma in inputs.embeddings.items()}
        case = inputs.evolve_case
        self.maps = [Request("map", "/v1/map",
                             _body({"embedding": fp["doc"], "xml": doc}),
                             _document_check(mapped))
                     for doc, mapped in zip(inputs.docs, inputs.mapped)]
        self.inverts = [Request("invert", "/v1/invert",
                                _body({"embedding": fp["doc"],
                                       "xml": inputs.mapped[i]}),
                                _document_check(inputs.inverted[i]))
                        for i in inputs.invert_ids]

        def translate(query) -> Request:
            def check(payload: dict) -> bool:
                result = payload.get("result", {})
                return (result.get("ok") is True
                        and isinstance(result.get("anfa"), str)
                        and anfa_shape(result["anfa"]) == query.expected)
            return Request("translate", "/v1/translate",
                           _body({"embedding": fp[query.embedding],
                                  "query": query.text}), check)

        self.hot = [translate(query) for query in inputs.hot]
        self.cold = [translate(query) for query in inputs.cold]
        self.deep = [translate(query) for query in inputs.deep]
        self.evolves = [
            Request("evolve", "/v1/evolve",
                    _body({"old": case.old.fingerprint(),
                           "new": case.new.fingerprint(),
                           "embedding": fp["evolve"],
                           "queries": window.queries}),
                    (lambda expected: lambda payload:
                     evolve_shape(payload) == expected)(window.expected))
            for window in inputs.windows]

    def translate_draw(self, rng: random.Random,
                       deep: Iterator[Request]) -> Request:
        """Half hot, half cold; a few percent of cold draws are the
        next (distinct) deep chain."""
        if rng.random() < 0.5:
            return rng.choice(self.hot)
        if self.deep and rng.random() < DEEP_SHARE:
            return next(deep)
        return rng.choice(self.cold)


def docs_schedule(requests: Requests, seed: int) -> Iterator[Request]:
    """``/v1/map`` and ``/v1/invert`` at 3:1, documents cycled in a
    seeded order."""
    rng = random.Random(seed)
    maps = _shuffled_cycle(requests.maps, rng)
    inverts = _shuffled_cycle(requests.inverts, rng)
    while True:
        block = ["map", "map", "map", "invert"]
        rng.shuffle(block)
        for kind in block:
            yield next(maps) if kind == "map" else next(inverts)


def queries_schedule(requests: Requests, seed: int) -> Iterator[Request]:
    """``/v1/translate`` and ``/v1/evolve`` at 15:1."""
    rng = random.Random(seed)
    deep = itertools.cycle(requests.deep)
    evolves = itertools.cycle(requests.evolves)
    while True:
        block = ["translate"] * 15 + ["evolve"]
        rng.shuffle(block)
        for kind in block:
            yield (next(evolves) if kind == "evolve"
                   else requests.translate_draw(rng, deep))


def side_requests(requests: Requests, kinds: Iterable[str], seed: int,
                  translates: int) -> list[Request]:
    """A fixed list of the endpoints a workload's main traffic lacks,
    so every workload reports every endpoint median: every map and
    invert body once, the evolve windows five times (the first pass
    misses the translation caches; the median lands well inside the
    later passes), and
    ``translates`` distinct cold queries (cache misses: a hot/cold mix
    would put the median on the boundary between hits and misses)."""
    rng = random.Random(seed)
    chosen: list[Request] = []
    for kind in kinds:
        if kind == "map":
            chosen += requests.maps
        elif kind == "invert":
            chosen += requests.inverts
        elif kind == "translate":
            chosen += rng.sample(requests.cold, translates)
        elif kind == "evolve":
            chosen += requests.evolves * 5
    rng.shuffle(chosen)
    return chosen


def _shuffled_cycle(items: list, rng: random.Random) -> Iterator:
    order = list(items)
    rng.shuffle(order)
    return itertools.cycle(order)


def closed_loop(port: int, schedule: Iterator[Request],
                seconds: Optional[float] = None, min_requests: int = 0,
                max_seconds: float = 150.0,
                connections: int = CONNECTIONS,
                recorder: Optional[Recorder] = None,
                ) -> tuple[list[Record], float, float]:
    """Run the schedule until it is exhausted, or until ``seconds``
    have passed and at least ``min_requests`` were sent (never past
    ``max_seconds``).  With a ``recorder`` each request is a
    ``serve.request`` span whose request id is its schedule index.
    Returns (records, wall seconds, generator CPU seconds)."""
    records: list[Record] = []
    lock = threading.Lock()
    issued = itertools.count()
    started = time.perf_counter()
    cpu_started = time.process_time()

    def next_request() -> Optional[tuple[int, Request]]:
        with lock:
            elapsed = time.perf_counter() - started
            index = next(issued)
            if elapsed >= max_seconds or (
                    seconds is not None and elapsed >= seconds
                    and index >= min_requests):
                return None
            request = next(schedule, None)
            return None if request is None else (index, request)

    def client() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=60)
        try:
            while True:
                item = next_request()
                if item is None:
                    return
                index, request = item
                span = (recorder.span("serve.request", index)
                        if recorder is not None else nullcontext())
                data, status = b"", 0
                with span:
                    begin = time.perf_counter()
                    try:
                        connection.request("POST", request.path,
                                           body=request.body,
                                           headers=HEADERS)
                        response = connection.getresponse()
                        data, status = response.read(), response.status
                    except (OSError, http.client.HTTPException):
                        connection.close()
                        connection = http.client.HTTPConnection(
                            "127.0.0.1", port, timeout=60)
                    end = time.perf_counter()
                try:
                    ok = status == 200 and request.check(json.loads(data))
                except ValueError:
                    ok = False
                records.append(Record(index, request, begin, end, ok))
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda record: record.index)
    return (records, time.perf_counter() - started,
            time.process_time() - cpu_started)


def send_side(port: int, side: list[Request],
              recorder: Optional[Recorder] = None) -> list[Record]:
    """Send a side list: evolves one at a time on one connection (two
    concurrent evolves queue behind each other's CPU time, which would
    make their median a queueing figure), everything else on two."""
    evolves = [request for request in side if request.kind == "evolve"]
    rest = [request for request in side if request.kind != "evolve"]
    records = closed_loop(port, iter(rest), recorder=recorder)[0]
    return records + closed_loop(port, iter(evolves), connections=1,
                                 recorder=recorder)[0]
