"""The HTTP client of the remote embedding and chat providers.

A transport is any ``(endpoint, payload, headers) -> decoded JSON body``
callable; providers take one by injection so tests never open a socket.
:func:`requests_transport` builds the default one, and :func:`post_json`
retries a transport with exponential backoff.
"""

from __future__ import annotations

from typing import Any, Callable

Transport = Callable[[str, dict, dict], Any]
BACKOFF = 0.5  # seconds before the first retry; each later wait doubles


def requests_transport(error: type[Exception], what: str, timeout: float) -> Transport:
    """POST JSON with ``requests``; a failed request, a status other than 200
    or a body that is not JSON raises ``error`` (the caller's retryable
    transport error)."""

    def post(endpoint: str, payload: dict, headers: dict) -> Any:
        import requests

        try:
            resp = requests.post(endpoint, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as e:
            raise error(f"{what} request failed: {e}") from e
        if resp.status_code != 200:
            raise error(f"{what} endpoint returned {resp.status_code}: {resp.text[:200]}")
        try:
            return resp.json()
        except ValueError as e:
            raise error(f"{what} endpoint returned invalid JSON: {e}") from e

    return post


def post_json(transport: Transport, endpoint: str, payload: dict, api_key: str | None, *,
              error: type[Exception], retries: int,
              sleep: Callable[[float], None]) -> Any:
    """Send ``payload`` through ``transport``, with a bearer ``api_key`` when
    one is set. Each ``error`` is retried after ``BACKOFF * 2**attempt``
    seconds, ``retries`` (at least 0) times at most; the last one propagates."""
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    for attempt in range(retries + 1):
        try:
            return transport(endpoint, payload, headers)
        except error:
            if attempt == retries:
                raise
            sleep(BACKOFF * (2 ** attempt))
