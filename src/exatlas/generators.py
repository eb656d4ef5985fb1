"""Chat providers, prompt construction, response parsing, and the bridge loop.

The two templates under ``prompts/`` (bridge generation, conflict
reconciliation) are fixed assets; only their declared substitution slots vary
at build time. Proposed bridge experiments enter the feature pool as
hypothetical nodes with no observed effect: they can make a gap target
composable but never feed an effect prediction.
"""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .archive import Archive, Experiment, jsonl_records
from .atlas import isolated_ratio
from .composer import ComposerConfig, FeatureStore, gate_rows
from .evaluator import TargetResult
from .remote import post_json, requests_transport
from .representation import (
    EmbeddingError,
    EmbeddingProvider,
    build_feature,
    embed_text,
    embedding_texts,
)
# A transcript keys each prompt by the SHA-256 hex digest of its UTF-8 text.
from .representation import text_key as prompt_hash

logger = logging.getLogger(__name__)

ENV_CHAT_KEY = "EXATLAS_CHAT_KEY"
DEFAULT_MAX_ROUNDS = 3
# Nearest real neighbors quoted in each bridge prompt.
LITERATURE_SIZE = 5

BRIDGE_TEMPLATE_NAME = "bridge_generation"
RECONCILE_TEMPLATE_NAME = "conflict_reconciliation"

# Substitution slots, by template. Everything outside these slots is fixed.
TEMPLATE_SLOTS: dict[str, tuple[str, ...]] = {
    BRIDGE_TEMPLATE_NAME: ("{IV}", "{DV}", "{literature}", "{listofknown}"),
    RECONCILE_TEMPLATE_NAME: (
        "{Predicted result based on composition}",
        "{Results of contributing experiments}",
    ),
}


class ChatError(Exception):
    pass


class ChatTransportError(ChatError):
    """Remote chat request failed after retries."""


class MalformedResponseError(ChatError):
    """Model reply is missing a required field or is empty."""


class MissingTranscriptError(ChatError):
    def __init__(self, prompt_hash: str):
        super().__init__(f"scripted stub has no response for prompt hash {prompt_hash}")
        self.prompt_hash = prompt_hash


def load_template(name: str) -> str:
    """Load a prompt template asset by name (without the .txt extension)."""
    return (resources.files("exatlas") / "prompts" / f"{name}.txt").read_text("utf-8")


def render_template(name: str, substitutions: Mapping[str, str]) -> str:
    """Fill a template's declared slots; any other text is left untouched."""
    text = load_template(name)
    for slot in TEMPLATE_SLOTS[name]:
        key = slot[1:-1]
        if key not in substitutions:
            raise KeyError(f"missing substitution for slot {slot}")
        text = text.replace(slot, substitutions[key])
    return text


@dataclass(frozen=True)
class ChatRequest:
    prompt: str


class ScriptedStubChat:
    """Replays a fixed transcript keyed by SHA-256 of the prompt text.

    Transcript files are line-delimited ``{"prompt_hash": ..., "response": ...}``
    records, one per prompt hash. Unknown prompts raise, which keeps offline tests honest.
    """

    kind = "scripted-stub"

    def __init__(self, transcript: Mapping[str, str]):
        self.transcript = dict(transcript)
        self.calls = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedStubChat":
        """Load a transcript file read by :func:`~exatlas.archive.jsonl_records`,
        one line per prompt hash; every error is a :class:`ChatError` naming
        the file and, for a bad record, the line."""
        transcript: dict[str, str] = {}
        first: dict[str, int] = {}
        with Path(path).open("rb") as fh:
            for line_no, rec in jsonl_records(path, fh, ChatError):
                missing = [k for k in ("prompt_hash", "response") if k not in rec]
                if missing:
                    raise ChatError(f"{path}:{line_no}: missing field {missing[0]!r}")
                if not (isinstance(rec["prompt_hash"], str)
                        and isinstance(rec["response"], str)):
                    raise ChatError(
                        f"{path}:{line_no}: prompt_hash and response must be strings")
                key = rec["prompt_hash"]
                line = first.setdefault(key, line_no)
                if line != line_no:
                    raise ChatError(f"{path}:{line_no}: duplicate prompt_hash {key!r} "
                                    f"(first on line {line})")
                transcript[key] = rec["response"]
        return cls(transcript)

    @classmethod
    def from_pairs(cls, pairs: Mapping[str, str]) -> "ScriptedStubChat":
        """Build a stub from plain prompt -> response pairs (hashing for you)."""
        return cls({prompt_hash(p): r for p, r in pairs.items()})

    def complete(self, request: ChatRequest) -> str:
        self.calls += 1
        h = prompt_hash(request.prompt)
        if h not in self.transcript:
            raise MissingTranscriptError(h)
        return self.transcript[h]


class RemoteChatProvider:
    """Minimal chat-completions client with retries and exponential backoff.

    Wire contract: ``POST endpoint`` with ``{"model", "messages", "temperature"}``
    returning ``{"choices": [{"message": {"content": ...}}]}``. The API key is
    read from ``EXATLAS_CHAT_KEY`` unless given.
    """

    kind = "remote-service"

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        temperature: float = 0.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        transport: Callable[[str, dict, dict], dict] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_CHAT_KEY)
        self.temperature = temperature
        self.max_retries = max(0, int(max_retries))
        self.backoff = backoff
        self._transport = transport or requests_transport(
            ChatTransportError, "chat", timeout=120)
        self._sleep = sleep

    def complete(self, request: ChatRequest) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": self.temperature,
        }
        doc = post_json(self._transport, self.endpoint, payload, self.api_key,
                        error=ChatTransportError, retries=self.max_retries,
                        backoff=self.backoff, sleep=self._sleep)
        try:
            content = doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as e:
            raise MalformedResponseError(f"unexpected chat response shape: {e}") from e
        if not isinstance(content, str) or not content.strip():
            raise MalformedResponseError("chat response is empty")
        return content


class AuditingChat:
    """Wraps a chat provider, logging every prompt/response pair to a directory."""

    def __init__(self, inner, audit_dir: str | Path):
        self.inner = inner
        self.audit_dir = Path(audit_dir)
        self.audit_dir.mkdir(parents=True, exist_ok=True)
        self._n = 0

    def complete(self, request: ChatRequest) -> str:
        self._n += 1
        stem = f"{self._n:03d}"
        (self.audit_dir / f"{stem}_prompt.txt").write_text(request.prompt, "utf-8")
        response = self.inner.complete(request)
        (self.audit_dir / f"{stem}_response.txt").write_text(response, "utf-8")
        return response


def _effect_direction(effect: float) -> str:
    if effect > 0:
        return "positive"
    if effect < 0:
        return "negative"
    return "null"


def describe_relation(exp: Experiment, with_effect: bool = False) -> str:
    """One-line statement of an experiment's causal question and its direction."""
    iv, dv, _ = embedding_texts(exp)
    effect = f", effect {exp.effect_size:+.4f}" if with_effect else ""
    return f"How does {iv} impact {dv}? (observed: {_effect_direction(exp.effect_size)}{effect})"


def build_reconciliation_prompt(conflict: TargetResult, sources: Sequence[Experiment],
                                target: Experiment) -> ChatRequest:
    """Fill the reconciliation template for a conflict that ``mine_conflicts`` admitted.

    The finding slot carries the target relation with the observed direction
    and the composition's predicted direction; the literature slot carries
    each positive-weight source's relation and observed effect.
    """
    by_id = {s.id: s for s in sources}
    positive = [(cid, w) for cid, w in conflict.composition.weights.items() if w > 0.0]
    missing = [cid for cid, _ in positive if cid not in by_id]
    if missing:
        raise ValueError(f"missing source experiments for ids: {missing}")
    iv, dv, _ = embedding_texts(target)
    finding = (
        f"How does {iv} impact {dv}? "
        f"My experiment observed a {_effect_direction(conflict.observed_effect)} effect "
        f"({conflict.observed_effect:+.4f}), while composing the prior experiments "
        f"predicted a {_effect_direction(conflict.predicted_effect)} effect "
        f"({conflict.predicted_effect:+.4f})."
    )
    ordered = sorted(positive, key=lambda kv: (-kv[1], kv[0]))
    literature = "; ".join(
        f"{describe_relation(by_id[cid], with_effect=True)} [weight {w:.3f}]"
        for cid, w in ordered
    )
    prompt = render_template(RECONCILE_TEMPLATE_NAME, {
        "Predicted result based on composition": finding,
        "Results of contributing experiments": literature,
    })
    return ChatRequest(prompt=prompt)


_YES_NO_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


def parse_reconciliation_response(text: str) -> tuple[bool, str]:
    """Extract the consistency verdict: (reconciliation needed, full response).

    The first standalone yes/no token answers the consistency check; "No"
    means the findings do not contradict and no reconciliation is needed.
    """
    m = _YES_NO_RE.search(text)
    if m is None:
        raise MalformedResponseError("reconciliation reply has no Yes/No verdict")
    return m.group(1).lower() == "yes", text


def build_bridge_prompt(target: Experiment, literature: Sequence[Experiment],
                        known: Sequence[str]) -> ChatRequest:
    """Fill the bridge-generation template for a gap target."""
    if not literature:
        raise ValueError("bridge prompt needs at least one literature entry")
    iv, dv, _ = embedding_texts(target)
    prompt = render_template(BRIDGE_TEMPLATE_NAME, {
        "IV": iv,
        "DV": dv,
        "literature": "; ".join(describe_relation(e) for e in literature),
        "listofknown": "; ".join(known) if known else "(none)",
    })
    return ChatRequest(prompt=prompt)


@dataclass(frozen=True)
class BridgeProposal:
    """One proposed connecting experiment, split out of a model reply."""

    text: str
    round: int
    parsed_treatment: str
    parsed_outcome: str


# "Variable A positively impacts variable B." and close variants.
_RELATION_RE = re.compile(
    r"^(?P<treatment>.+?)\s+"
    r"(?:positively\s+|negatively\s+|significantly\s+|strongly\s+|weakly\s+)?"
    r"(?:impacts?|increases?|decreases?|reduces?|improves?|affects?|influences?"
    r"|boosts?|lowers?|raises?)\s+"
    r"(?P<outcome>.+?)\s*\.?\s*$",
    re.IGNORECASE,
)


def parse_bridge_response(text: str, round: int = 1) -> list[BridgeProposal]:
    """Split a bridge reply on ";" into proposals, trimming and dropping empties.

    Treatment and outcome are pulled from the "A impacts B" pattern above;
    when a fragment does not match, the whole fragment lands in both fields.
    """
    fragments = [frag.strip() for frag in text.split(";")]
    fragments = [f for f in fragments if f]
    if not fragments:
        raise MalformedResponseError("bridge reply contains no proposals")
    proposals = []
    for frag in fragments:
        m = _RELATION_RE.match(frag)
        if m:
            treatment = m.group("treatment").strip()
            outcome = m.group("outcome").strip()
        else:
            treatment = outcome = frag
        proposals.append(BridgeProposal(
            text=frag, round=round,
            parsed_treatment=treatment, parsed_outcome=outcome,
        ))
    return proposals


@dataclass(frozen=True)
class BridgeResult:
    """Outcome of the iterative gap-bridging loop for one target.

    ``isolated_ratio_trace`` has one entry per round plus the round-0
    baseline, so its length is ``rounds_run + 1``.
    """

    target_id: str
    rounds_run: int
    proposals: tuple[BridgeProposal, ...]
    final_composable: bool
    isolated_ratio_trace: tuple[float, ...]


def check_max_rounds(max_rounds: int) -> None:
    """Reject a bridge loop of no rounds."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")


def bridge_loop(target: Experiment, archive: Archive,
                features: Mapping[str, np.ndarray],
                embedder: EmbeddingProvider, chat,
                cfg: ComposerConfig,
                max_rounds: int = DEFAULT_MAX_ROUNDS) -> BridgeResult:
    """Propose, embed, and insert hypothetical experiments until the target composes.

    Each round builds a prompt from the target's nearest real neighbors and
    every earlier proposal, parses the reply into proposals, embeds them from
    their parsed texts, and gates the archive again over the augmented pool.
    Round 0 and each round run one :func:`~exatlas.composer.gate_rows` pass
    over every archive member: the target's gate (its decision, and its
    candidates for the literature) and the round's entry of the trace, the
    archive-wide isolated ratio, come from that pass. Hypothetical nodes
    carry no observed effect and are not counted in the ratio. One store
    grows by each round's proposals, and its memo skips the solve for every
    target whose candidates a round leaves unchanged: a residual is taken
    only where its bracket cannot settle rho <= lambda, and no composition
    is built.
    """
    check_max_rounds(max_rounds)
    store = FeatureStore.from_features(features, archive.ids())
    width = store.matrix.shape[1]
    if 3 * embedder.dimension != width:
        raise EmbeddingError(
            f"embedding provider dimension {embedder.dimension} gives features of "
            f"length {3 * embedder.dimension}, but the archive's features have "
            f"length {width}")
    row = archive.ids().index(target.id)
    gates = list(gate_rows(store, cfg))
    if gates[row].composable:
        raise ValueError(f"target {target.id!r} is already composable")

    trace = [isolated_ratio(gates)]
    proposals_all: list[BridgeProposal] = []
    for rnd in range(1, max_rounds + 1):
        literature = [archive.experiments[j] for j in gates[row].cols.tolist()
                      if j < len(archive)][:LITERATURE_SIZE]
        request = build_bridge_prompt(target, literature, [p.text for p in proposals_all])
        response = chat.complete(request)
        proposals = parse_bridge_response(response, round=rnd)
        added: dict[str, np.ndarray] = {}
        for k, prop in enumerate(proposals):
            try:
                t = embed_text(embedder, prop.parsed_treatment)
                o = embed_text(embedder, prop.parsed_outcome)
            except EmbeddingError as e:
                logger.warning("dropping proposal %r (round %d): %s",
                               prop.text[:60], rnd, e)
                continue
            added[f"hypothetical:{target.id}:{rnd}:{k}"] = build_feature(t, o)
        store = store.extended(added)
        proposals_all.extend(proposals)
        gates = list(gate_rows(store, cfg))
        trace.append(isolated_ratio(gates))
        if gates[row].composable:
            break
    return BridgeResult(
        target_id=target.id,
        rounds_run=len(trace) - 1,
        proposals=tuple(proposals_all),
        final_composable=gates[row].composable,
        isolated_ratio_trace=tuple(trace),
    )
