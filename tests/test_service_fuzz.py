"""Fuzz (hypothesis) of the ``repro serve`` HTTP handler.

Requests are drawn over every route and unknown ones, with GET, POST and
DELETE, random job IDs, query strings, tenant headers, bodies (random
bytes, random JSON, JSON nested past the decoder's recursion limit, and
sweep requests the server accepts) and ``Content-Length`` values that are
non-numeric, negative, above the body cap or no longer than the body.  A
longer one makes the handler wait out its socket timeout, which
``tests/test_service.py::TestErrors::
test_stalled_body_is_408_and_frees_the_handler`` covers.

Every response must be a 2xx or 4xx whose body parses (as JSON, except
``GET /metrics``), and every handler thread must end.  The job executor is
never started, so an accepted submission queues and runs no campaign.
"""

import json
import socket
import threading
import time
from urllib.parse import urlparse

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.service import ReproService, ServiceConfig, TENANT_HEADER
from repro.service.server import MAX_BODY_BYTES

_GRID = {
    "apps": ["redis"], "strategies": ["DarwinGame"], "seeds": [0, 1],
    "scale": "test", "eval_runs": 10,
}

_URL_TEXT = st.text(
    alphabet="abcdefgxyz0123456789-_.~%+", min_size=1, max_size=12
)

_QUERY_VALUES = st.sampled_from(
    ["-1", "x", "nope", "maybe", "", "0", "1", "2", "10", "summary",
     "by-scenario", "by-format", "failures", "99999999999999999999"]
) | st.integers(-5, 10**20).map(str) | _URL_TEXT


def _query(pairs) -> str:
    return "?" + "&".join(f"{key}={value}" for key, value in pairs)


_QUERIES = st.just("") | st.lists(
    st.tuples(
        st.sampled_from(["offset", "limit", "view", "ok"]) | _URL_TEXT,
        _QUERY_VALUES,
    ),
    max_size=4,
).map(_query)


#: Routes a job ID fills in, then the rest and some unknown ones.
_JOB_ROUTES = (
    "/v1/sweeps/{id}", "/v1/sweeps/{id}/results", "/v1/sweeps/{id}/report",
)
_ROUTES = _JOB_ROUTES + (
    "/v1/sweeps", "/metrics", "/healthz", "/", "/v1", "/v2/sweeps",
    "/v1/sweeps/{id}/nope", "/v1/sweeps/{id}/results/x", "//metrics/",
    "/v1/sweeps/",
)

_TENANTS = st.sampled_from([None, "alice", "bob"]) | st.sampled_from(
    ["", " ", "../etc", "a" * 65, "-x", "Ünïcode", "a b"]
) | st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF),
    max_size=12,
)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _deep(depth: int, kind: str) -> bytes:
    """JSON nested ``depth`` levels, under ``{"grid": {"apps": ...}}`` for
    the ``grid`` kind."""
    if kind == "object":
        return b'{"a": ' * depth + b"1" + b"}" * depth
    nested = b"[" * depth + b"]" * depth
    if kind == "grid":
        return b'{"grid": {"apps": ' + nested + b"}}"
    return nested


#: The decoder's nesting limit depends on the interpreter: the recursion
#: limit through Python 3.11, which hypothesis raises while it runs a
#: test, and the C recursion limit (10,000 on Linux release builds) on
#: 3.12.  A body that must exceed it is nested 100,000 levels (the
#: handler reads these whole: they go to the submission route with their
#: exact length).
_DEEP_ARRAY = _deep(100_000, "array")
_DEEP_OBJECT = _deep(100_000, "object")

_SWEEPS = st.fixed_dictionaries({
    "apps": st.lists(st.sampled_from(["redis", "lammps"]), min_size=1,
                     max_size=2, unique=True),
    "seeds": st.lists(st.integers(0, 50), min_size=1, max_size=2,
                      unique=True),
    "scale": st.just("test"),
    "eval_runs": st.integers(2, 20),
}).map(lambda grid: {"grid": grid})

_BODIES = {
    "sweep": _SWEEPS.map(lambda request: json.dumps(request).encode("utf-8")),
    "json": _JSON.map(lambda value: json.dumps(value).encode("utf-8")),
    "bytes": st.binary(max_size=64),
    # At most ~35 KB, which the socket buffers hold whole: a handler that
    # replies without reading the body must not reset the connection
    # before the client has sent it.
    "deep": st.builds(
        _deep,
        st.sampled_from([1, 10, 500, 1000, 5000]) | st.integers(900, 1100),
        st.sampled_from(["array", "object", "grid"]),
    ),
    "empty": st.just(b""),
}


def _length(kind: str, body: bytes):
    """A ``Content-Length`` value, never one above the body's that the cap
    admits: the handler would wait for the rest until its socket
    timeout."""
    return {
        "exact": st.just(str(len(body))),
        "absent": st.none(),
        "shorter": st.integers(0, len(body)).map(str),
        "bad": st.sampled_from(
            ["-1", "-100", "abc", "1.5", "0x10", "+5", "²", ""]
        ),
        "over": st.integers(MAX_BODY_BYTES + 1, 10**12).map(str),
    }[kind]


@st.composite
def _requests(draw, job_ids):
    """A submission, a read of a job, or any method on any route, drawn
    about equally often so that each meets its handler's checks."""
    scenario = draw(st.sampled_from(["submit", "read", "any"]))
    job_id = draw(st.sampled_from(job_ids) | _URL_TEXT)
    # The known jobs are alice's.
    tenant = draw(st.just("alice") | _TENANTS)
    if scenario == "submit":
        method, route = "POST", "/v1/sweeps"
        body_kind = draw(st.sampled_from(
            ["sweep", "sweep", "sweep", "json", "bytes", "deep", "empty"]
        ))
        length_kind = draw(st.sampled_from(
            ["exact", "exact", "exact", "absent", "shorter", "bad", "over"]
        ))
    else:
        if scenario == "read":
            method, route = "GET", draw(st.sampled_from(_JOB_ROUTES))
        else:
            method = draw(st.sampled_from(["POST", "GET", "DELETE"]))
            route = draw(st.sampled_from(_ROUTES))
        body_kind = draw(st.sampled_from(sorted(_BODIES)))
        length_kind = draw(st.sampled_from(
            ["exact", "absent", "shorter", "bad", "over"]
        ))
    path = route.replace("{id}", job_id) + draw(_QUERIES)
    body = draw(_BODIES[body_kind])
    length = draw(_length(length_kind, body))
    return method, path, body, length, tenant


def _exchange(address, method, path, body, length, tenant):
    """One request on its own connection; returns (status, headers, body)."""
    head = [f"{method} {path} HTTP/1.1", "Host: fuzz", "Connection: close"]
    if length is not None:
        head.append(f"Content-Length: {length}")
    if tenant is not None:
        head.append(f"{TENANT_HEADER}: {tenant}")
    request = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
    reply = b""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            # The server closed with part of our body unread; what it sent
            # before that is complete, as checked below.
            pass
    raw_head, _, payload = reply.partition(b"\r\n\r\n")
    status_line, *header_lines = raw_head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in header_lines)
    }
    assert len(payload) == int(headers["content-length"]), reply
    return int(status_line.split()[1]), headers, payload


def test_every_response_is_2xx_or_4xx_and_no_thread_leaks(
    tmp_path, monkeypatch
):
    config = ServiceConfig(port=0, data_root=tmp_path / "serve.d")
    service = ReproService(config)
    # Accepted submissions queue and never run.
    monkeypatch.setattr(service.manager, "start", lambda: service.manager)
    with service:
        baseline = threading.active_count()
        body = json.dumps({"grid": _GRID}).encode("utf-8")
        status, _, payload = _exchange(
            service.address, "POST", "/v1/sweeps", body, str(len(body)),
            "alice",
        )
        assert status == 202
        job_id = json.loads(payload)["job"]["id"]

        @given(request=_requests([job_id]))
        @example(request=("POST", "/v1/sweeps", _DEEP_ARRAY,
                          str(len(_DEEP_ARRAY)), None))
        @example(request=("POST", "/v1/sweeps", _DEEP_OBJECT,
                          str(len(_DEEP_OBJECT)), "alice"))
        @settings(
            max_examples=100, deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def check(request):
            method, path, body, length, tenant = request
            status, headers, payload = _exchange(
                service.address, method, path, body, length, tenant
            )
            assert 200 <= status < 300 or 400 <= status < 500, (
                status, payload,
            )
            # http.server collapses leading slashes before routing.
            route = urlparse("/" + path.lstrip("/")).path
            if method == "GET" and route.strip("/") == "metrics":
                assert headers["content-type"].startswith("text/plain")
                payload.decode("utf-8")
            else:
                assert headers["content-type"] == "application/json"
                json.loads(payload)

        check()
        deadline = time.monotonic() + 10.0
        while threading.active_count() > baseline:
            assert time.monotonic() < deadline, threading.enumerate()
            time.sleep(0.01)
