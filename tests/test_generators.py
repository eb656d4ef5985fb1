from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest
from oracles import record_selected_targets, reference_isolated_ratio

from exatlas.archive import Archive, Experiment
from exatlas.composer import ComposerError, Composition, Neighborhood, assess
from exatlas.cli import parse_chat_provider
from exatlas.evaluator import TargetResult
from exatlas.generators import (
    AuditingChat,
    ChatError,
    ChatRequest,
    ChatTransportError,
    RemoteChatProvider,
    ScriptedStubChat,
    TEMPLATE_SLOTS,
    bridge_loop,
    build_bridge_prompt,
    build_reconciliation_prompt,
    load_template,
    parse_bridge_response,
    parse_reconciliation_response,
    prompt_hash,
    render_template,
)
from exatlas.representation import (
    RemoteEmbeddingProvider,
    VectorFileProvider,
    build_feature,
    write_vector_file,
)

# Frozen reference copies of the two prompt templates. The byte-comparison
# below pins the shipped assets: everything outside the declared slots is
# fixed text that must never drift.
FROZEN_BRIDGE_TEMPLATE = """\
You are a professor in management and psychology research domain. You mainly use experimental methods. Your task is to bridge the gap between a *target experiment* and the existing body of scientific literature to make the whole theory space more connected and self-contained.

[Target Experiment]:
"How does {IV} impact {DV}?"

[Context]:
The target experiment currently lacks strong connections to established research or prior experimental evidence. Thus, it cannot be logically derived from the collection of existing body of literature. Relevant existing body of literature (separated by '; ') is listed below:
"{literature}"

[Task]:
Propose bridge experiments that logically connect the target experiment to the existing body of literature, such that the derived synergy of prior evidence and the newly proposed experiments form a coherent and cumulative pathway toward linking, justifying and motivating the target experiment.

[Requirements for each proposed experiment]:
1. Try to state the proposed experiment in the **simple form of independent/dependent variables and their relations** (e.g., **Variable A positively/negatively impacts variable B.**).
2. You should try to **avoid** introducing complex conditioning, mediation, or moderation relations between dependent and independent variables unless doing so is necessary to establish a meaningful link between experiments.
3. <**Avoid** introducing theories/experiments that directly compete with or contradict> the existing evidence or the derived synergy of existing evidence.
4. Ensure the proposed experiments are **logically coherent and empirically testable**.
5. Embed **concrete details** into each proposed experiment.
6. **Be concise and creative**.
7. You should select the number of proposed experiments that is **the most appropriate** for the connection to the space of the established experiments.

You should **avoid** proposing experiments that duplicate any of those in the given list below:
"{listofknown}"

Return only the proposed experiments.
If more than one experiment is proposed, **separate them with ";"**
"""

FROZEN_RECONCILE_TEMPLATE = """\
I ran an experiment on humans and found:
{Predicted result based on composition}

Prior literature suggests:
{Results of contributing experiments}

Answer the following:
- Q1 - Consistency check:
 Do my findings contradict the prior findings or the hypotheses implied by them? Answer Yes or No.

- Q2: If Yes, reconcile the conflict.
 Source of discrepancy: Identify concrete reasons for the conflict (e.g., differences in context, moderator conditions, populations, operationalization of variables, model assumptions, or distinct variants within a broader meta-theory).
 Unified explanation: Propose a single, coherent reconciliation (e.g., a meta theory) that can accommodate both my findings and the prior literature. Be explicit about the mechanisms or conditions under which each result holds.

Be creative. Skip Q2 if the answer to Q1 is No.
"""


class TestTemplateFidelity:
    def test_bridge_template_bytes(self):
        assert load_template("bridge_generation") == FROZEN_BRIDGE_TEMPLATE

    def test_reconciliation_template_bytes(self):
        assert load_template("conflict_reconciliation") == FROZEN_RECONCILE_TEMPLATE

    def test_declared_slots_present_in_templates(self):
        for name, slots in TEMPLATE_SLOTS.items():
            text = load_template(name)
            for slot in slots:
                assert slot in text, (name, slot)

    def test_render_replaces_only_declared_slots(self):
        rendered = render_template("bridge_generation", {
            "IV": "IV-VALUE", "DV": "DV-VALUE",
            "literature": "LIT-VALUE", "listofknown": "KNOWN-VALUE",
        })
        # Slot markers gone, values in, all other bytes identical.
        assert "{IV}" not in rendered and "IV-VALUE" in rendered
        reverted = (rendered
                    .replace("IV-VALUE", "{IV}", 1)
                    .replace("DV-VALUE", "{DV}", 1)
                    .replace("LIT-VALUE", "{literature}", 1)
                    .replace("KNOWN-VALUE", "{listofknown}", 1))
        assert reverted == FROZEN_BRIDGE_TEMPLATE

    def test_render_missing_slot_rejected(self):
        with pytest.raises(KeyError):
            render_template("bridge_generation", {"IV": "x"})


def exp(exp_id, treatment, outcome="common outcome", effect=1.0, context="ctx"):
    return Experiment(id=exp_id, treatment_text=treatment, outcome_text=outcome,
                      effect_size=effect, context_text=context)


class TestScriptedStub:
    def test_replays_by_prompt_hash(self):
        stub = ScriptedStubChat.from_pairs({"hello": "world"})
        assert stub.complete(ChatRequest("hello")) == "world"

    def test_unknown_prompt_raises(self):
        stub = ScriptedStubChat.from_pairs({"hello": "world"})
        with pytest.raises(ChatError, match="^scripted stub has no response for prompt hash "
                                            f"{prompt_hash('other')}$"):
            stub.complete(ChatRequest("other"))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        path.write_text(json.dumps({"prompt_hash": prompt_hash("p"),
                                     "response": "r"}) + "\n", encoding="utf-8")
        stub = ScriptedStubChat.from_file(path)
        assert stub.complete(ChatRequest("p")) == "r"

    @pytest.mark.parametrize("line, message", [
        ('{"prompt_hash": "abc"}', "missing field 'response'"),
        ('{"response": "r"}', "missing field 'prompt_hash'"),
        ('["abc", "r"]', "expected a JSON object"),
        ('{"prompt_hash": "abc", ', "invalid JSON: Expecting property name enclosed "
                                   "in double quotes"),
    ])
    def test_malformed_transcript_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "transcript.jsonl"
        good = json.dumps({"prompt_hash": prompt_hash("p"), "response": "r"})
        path.write_text(good + "\n\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ChatError) as err:
            ScriptedStubChat.from_file(path)
        assert str(err.value) == f"{path}:3: {message}"

    def test_repeated_prompt_hash_rejected(self, tmp_path):
        """A transcript holds one reply per prompt, as a vector file holds one
        vector per id: a second line for a hash is an error, not a new reply."""
        path = tmp_path / "transcript.jsonl"
        h = prompt_hash("p")
        path.write_text("\n".join(json.dumps({"prompt_hash": k, "response": r}) for k, r in
                                  [(h, "r"), (prompt_hash("q"), "s"), (h, "t")]) + "\n",
                        encoding="utf-8")
        with pytest.raises(ChatError) as err:
            ScriptedStubChat.from_file(path)
        assert str(err.value) == f"{path}:3: duplicate prompt_hash {h!r} (first on line 1)"


class TestRemoteChat:
    def test_retries_then_succeeds(self):
        attempts = {"n": 0}

        def flaky(endpoint, payload, headers):
            attempts["n"] += 1
            if attempts["n"] < 2:
                raise ChatTransportError("down")
            return {"choices": [{"message": {"content": "ok"}}]}

        chat = RemoteChatProvider("http://x", "model", transport=flaky,
                                  sleep=lambda s: None)
        assert chat.complete(ChatRequest("p")) == "ok"
        assert attempts["n"] == 2

    def test_failure_after_retries_propagates(self):
        def dead(endpoint, payload, headers):
            raise ChatTransportError("down")

        chat = RemoteChatProvider("http://x", "model", max_retries=2,
                                  transport=dead, sleep=lambda s: None)
        with pytest.raises(ChatTransportError):
            chat.complete(ChatRequest("p"))

    def test_empty_content_rejected(self):
        def empty(endpoint, payload, headers):
            return {"choices": [{"message": {"content": "  "}}]}

        chat = RemoteChatProvider("http://x", "model", transport=empty)
        with pytest.raises(ChatError, match="^chat response is empty$"):
            chat.complete(ChatRequest("p"))

    @pytest.mark.parametrize("spec,sent", [
        ("remote:endpoint=http://x,model=m,temperature=0.7", 0.7),
        ("remote:endpoint=http://x,model=m", 0.0),
    ])
    def test_spec_temperature_is_sent(self, spec, sent):
        payloads = []

        def capture(endpoint, payload, headers):
            payloads.append(payload)
            return {"choices": [{"message": {"content": "ok"}}]}

        chat = parse_chat_provider(spec, None)
        chat._transport = capture
        assert chat.complete(ChatRequest("p")) == "ok"
        assert [p["temperature"] for p in payloads] == [sent]


class TestReconciliationPrompt:
    def make_conflict(self):
        sources = [exp("s1", "t1", effect=0.5), exp("s2", "t2", effect=0.4),
                   exp("s3", "t3", effect=0.2)]
        nb = Neighborhood("tgt", ("s1", "s2", "s3"), 1.0)
        comp = Composition("tgt", {"s1": 0.5, "s2": 0.3, "s3": 0.2}, 0.1, 0.1,
                           0.45, True, "optimal", nb)
        conflict = TargetResult(comp, -0.3)
        target = exp("tgt", "target treatment", effect=-0.3)
        return conflict, sources, target

    def test_contains_all_source_findings_and_blocks(self):
        conflict, sources, target = self.make_conflict()
        req = build_reconciliation_prompt(conflict, sources, target)
        for s in sources:
            assert s.treatment_text in req.prompt
        assert "Q1 - Consistency check" in req.prompt
        assert "Q2: If Yes, reconcile the conflict." in req.prompt
        assert "{Predicted result based on composition}" not in req.prompt
        assert "{Results of contributing experiments}" not in req.prompt

    def test_missing_source_rejected(self):
        conflict, sources, target = self.make_conflict()
        with pytest.raises(ValueError):
            build_reconciliation_prompt(conflict, sources[:2], target)

    def test_stub_no_answer_marks_not_needed(self):
        conflict, sources, target = self.make_conflict()
        req = build_reconciliation_prompt(conflict, sources, target)
        stub = ScriptedStubChat.from_pairs({req.prompt: "No"})
        needed, _ = parse_reconciliation_response(stub.complete(req))
        assert needed is False

    def test_stub_yes_answer_marks_needed(self):
        needed, text = parse_reconciliation_response(
            "Yes. The conflict reflects a moderator structure.")
        assert needed is True
        assert "moderator" in text

    def test_verdict_required(self):
        with pytest.raises(ChatError, match="^reconciliation reply has no Yes/No verdict$"):
            parse_reconciliation_response("unclear rambling")


class TestBridgePrompt:
    def test_literature_joined_by_semicolons(self):
        target = exp("t", "target treatment")
        lit = [exp("a", "alpha", effect=0.5), exp("b", "beta", effect=-0.5)]
        req = build_bridge_prompt(target, lit, known=[])
        assert ("How does alpha impact common outcome? (observed: positive); "
                "How does beta impact common outcome? (observed: negative)"
                ) in req.prompt

    def test_known_list_appears(self):
        target = exp("t", "target treatment")
        lit = [exp("a", "alpha")]
        req = build_bridge_prompt(target, lit, known=["Prior proposal one"])
        assert "Prior proposal one" in req.prompt

    def test_empty_known_list_marker(self):
        req = build_bridge_prompt(exp("t", "x"), [exp("a", "alpha")], known=[])
        assert '"(none)"' in req.prompt

    def test_empty_literature_rejected(self):
        with pytest.raises(ValueError):
            build_bridge_prompt(exp("t", "x"), [], known=[])

    def test_enriched_texts_preferred(self):
        target = Experiment(id="t", treatment_text="raw t", outcome_text="raw o",
                            effect_size=1.0, enriched_treatment="enriched t",
                            enriched_outcome="enriched o")
        req = build_bridge_prompt(target, [exp("a", "alpha")], known=[])
        assert '"How does enriched t impact enriched o?"' in req.prompt


class TestParseBridgeResponse:
    def test_two_proposals_split(self):
        got = parse_bridge_response("A increases B; C reduces D")
        assert len(got) == 2
        assert got[0].parsed_treatment == "A"
        assert got[0].parsed_outcome == "B"
        assert got[1].parsed_treatment == "C"
        assert got[1].parsed_outcome == "D"

    def test_single_proposal_without_separator(self):
        got = parse_bridge_response("Mentoring positively impacts retention.")
        assert len(got) == 1
        assert got[0].parsed_treatment == "Mentoring"
        assert got[0].parsed_outcome == "retention"

    def test_trailing_separator_dropped(self):
        got = parse_bridge_response("A increases B;")
        assert len(got) == 1

    def test_whitespace_trimmed(self):
        got = parse_bridge_response("  A increases B ;  C lowers D  ")
        assert [p.text for p in got] == ["A increases B", "C lowers D"]

    def test_unparseable_fragment_falls_back_to_whole_text(self):
        got = parse_bridge_response("a fragment with no relation verb")
        assert got[0].parsed_treatment == got[0].parsed_outcome == got[0].text

    def test_all_empty_rejected(self):
        with pytest.raises(ChatError, match="^bridge reply contains no proposals$"):
            parse_bridge_response(" ; ; ")

    def test_round_recorded(self):
        got = parse_bridge_response("A increases B", round=3)
        assert got[0].round == 3


def make_gap_fixture(tmp_path):
    """Archive where the target is a gap until one midpoint vector is planted.

    Outcome embeddings are shared, so features are affine in the treatment
    embedding: the planted proposal's treatment vector is chosen to put the
    target exactly at the midpoint of it and the nearest real source.
    """
    o = np.array([1.0, 0.0, 0.0, 0.0])
    t_vecs = {
        "treat A": np.array([1.0, 0.0, 0.0, 0.0]),
        "treat B": np.array([0.9, 0.1, 0.0, 0.0]),
        "treat C": np.array([0.8, 0.2, 0.0, 0.0]),
        "treat D": np.array([0.85, 0.15, 0.0, 0.0]),
        "treat T": np.array([0.0, 0.0, 1.0, 0.0]),
    }
    t_vecs["planted bridge treatment"] = 2 * t_vecs["treat T"] - t_vecs["treat A"]
    t_vecs["useless treatment"] = np.array([5.0, 5.0, 5.0, 5.0])
    vectors = dict(t_vecs)
    vectors["common outcome"] = o
    vec_path = tmp_path / "vectors.jsonl"
    write_vector_file(vec_path, vectors)
    provider = VectorFileProvider(vec_path)

    archive = Archive((
        exp("src-a", "treat A", effect=0.5),
        exp("src-b", "treat B", effect=0.4),
        exp("src-c", "treat C", effect=0.3),
        exp("src-d", "treat D", effect=0.45),
        exp("gap-t", "treat T", effect=0.9),
    ))
    features = {e.id: build_feature(t_vecs[e.treatment_text], o) for e in archive}
    return archive, features, provider


class TestBridgeLoop:
    def test_planted_midpoint_converges_in_one_round(self, tmp_path, default_cfg):
        archive, features, provider = make_gap_fixture(tmp_path)
        target = archive.get("gap-t")
        pool = {i: features[i] for i in archive.ids() if i != "gap-t"}
        comp0 = assess(target, features["gap-t"], pool, None, default_cfg)
        assert not comp0.composable
        literature = [archive.get(c) for c in comp0.neighborhood.candidate_ids[:5]]
        round1_prompt = build_bridge_prompt(target, literature, known=[]).prompt
        stub = ScriptedStubChat.from_pairs({
            round1_prompt: "planted bridge treatment increases common outcome",
        })
        result = bridge_loop(target, archive, features, provider, stub,
                             default_cfg, max_rounds=2)
        assert result.final_composable
        assert result.rounds_run == 1
        assert len(result.proposals) == 1
        assert result.proposals[0].parsed_treatment == "planted bridge treatment"
        assert len(result.isolated_ratio_trace) == result.rounds_run + 1

    def test_two_round_convergence_and_trace_monotone(self, tmp_path, default_cfg):
        archive, features, provider = make_gap_fixture(tmp_path)
        target = archive.get("gap-t")
        pool = {i: features[i] for i in archive.ids() if i != "gap-t"}
        comp0 = assess(target, features["gap-t"], pool, None, default_cfg)
        literature = [archive.get(c) for c in comp0.neighborhood.candidate_ids[:5]]
        prompt1 = build_bridge_prompt(target, literature, known=[]).prompt
        # Round 1 proposes something useless; the loop should continue.
        response1 = "useless treatment increases common outcome"
        prompt2 = build_bridge_prompt(target, literature,
                                      known=[response1]).prompt
        stub = ScriptedStubChat.from_pairs({
            prompt1: response1,
            prompt2: "planted bridge treatment increases common outcome",
        })
        result = bridge_loop(target, archive, features, provider, stub,
                             default_cfg, max_rounds=3)
        assert result.final_composable
        assert result.rounds_run == 2
        trace = result.isolated_ratio_trace
        assert len(trace) == 3
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert trace[-1] < trace[0]

    def test_trace_matches_per_target_reference(self, tmp_path, default_cfg):
        archive, features, provider = make_gap_fixture(tmp_path)
        target = archive.get("gap-t")
        pool = {i: features[i] for i in archive.ids() if i != "gap-t"}
        comp0 = assess(target, features["gap-t"], pool, None, default_cfg)
        literature = [archive.get(c) for c in comp0.neighborhood.candidate_ids[:5]]
        response1 = "useless treatment increases common outcome"
        stub = ScriptedStubChat.from_pairs({
            build_bridge_prompt(target, literature, known=[]).prompt: response1,
            build_bridge_prompt(target, literature, known=[response1]).prompt:
                "planted bridge treatment increases common outcome",
        })
        result = bridge_loop(target, archive, features, provider, stub, default_cfg)
        (o,) = provider.embed_many(["common outcome"])
        extra: dict = {}
        want = [reference_isolated_ratio(archive, features, default_cfg)]
        for rnd, treatment in ((1, "useless treatment"), (2, "planted bridge treatment")):
            extra[f"hypothetical:gap-t:{rnd}:0"] = build_feature(*provider.embed_many([treatment]), o)
            want.append(reference_isolated_ratio(archive, features, default_cfg, extra))
        assert list(result.isolated_ratio_trace) == want

    def test_a_proposal_costs_one_remote_request(self, tmp_path, default_cfg):
        """A proposal's treatment and outcome go to the provider in one call:
        a remote provider sends one request for the texts it has not cached."""
        archive, features, provider = make_gap_fixture(tmp_path)
        target = archive.get("gap-t")
        pool = {i: features[i] for i in archive.ids() if i != "gap-t"}
        comp0 = assess(target, features["gap-t"], pool, None, default_cfg)
        literature = [archive.get(c) for c in comp0.neighborhood.candidate_ids[:5]]
        response1 = "useless treatment increases common outcome"
        stub = ScriptedStubChat.from_pairs({
            build_bridge_prompt(target, literature, known=[]).prompt: response1,
            build_bridge_prompt(target, literature, known=[response1]).prompt:
                "planted bridge treatment increases common outcome",
        })
        sent: list = []

        def transport(endpoint, payload, headers):
            sent.append(payload["input"])
            return {"data": [{"embedding": v.tolist()}
                             for v in provider.embed_many(payload["input"])]}

        remote = RemoteEmbeddingProvider("in-process", dimension=provider.dimension,
                                         transport=transport, sleep=None)
        result = bridge_loop(target, archive, features, remote, stub, default_cfg)
        assert (result.rounds_run, result.final_composable) == (2, True)
        assert sent == [["useless treatment", "common outcome"],
                        ["planted bridge treatment"]]

    def test_round_limit_respected_when_proposals_useless(self, tmp_path,
                                                          default_cfg):
        archive, features, provider = make_gap_fixture(tmp_path)
        target = archive.get("gap-t")
        pool = {i: features[i] for i in archive.ids() if i != "gap-t"}
        comp0 = assess(target, features["gap-t"], pool, None, default_cfg)
        literature = [archive.get(c) for c in comp0.neighborhood.candidate_ids[:5]]
        response = "useless treatment increases common outcome"
        known: list[str] = []
        pairs = {}
        for _ in range(3):
            pairs[build_bridge_prompt(target, literature, known).prompt] = response
            known.append(response)
        stub = ScriptedStubChat.from_pairs(pairs)
        result = bridge_loop(target, archive, features, provider, stub,
                             default_cfg, max_rounds=2)
        assert not result.final_composable
        assert result.rounds_run == 2

    @pytest.mark.parametrize("useless", [False, True])
    def test_one_gate_pass_per_round(self, tmp_path, default_cfg, monkeypatch, useless):
        """Round 0 and each round run one gate pass over the archive, two
        targets a block here, and no target is gated on its own."""
        import exatlas.composer as composer_mod

        archive, features, provider = make_gap_fixture(tmp_path)
        target = archive.get("gap-t")
        pool = {i: features[i] for i in archive.ids() if i != "gap-t"}
        comp0 = assess(target, features["gap-t"], pool, None, default_cfg)
        literature = [archive.get(c) for c in comp0.neighborhood.candidate_ids[:5]]
        response = ("useless treatment" if useless else "planted bridge treatment") \
            + " increases common outcome"
        stub = ScriptedStubChat.from_pairs({
            build_bridge_prompt(target, literature, known).prompt: response
            for known in ([], [response], [response] * 2)})
        monkeypatch.setattr(composer_mod, "ASSESS_BLOCK", 2)
        calls = record_selected_targets(monkeypatch)
        result = bridge_loop(target, archive, features, provider, stub, default_cfg,
                             max_rounds=3)
        assert result.rounds_run == (3 if useless else 1)
        assert calls == [[0, 1], [2, 3], [4]] * (result.rounds_run + 1)

    def test_zero_round_sentinel_rejected(self, tmp_path, default_cfg):
        archive, features, provider = make_gap_fixture(tmp_path)
        with pytest.raises(ValueError):
            bridge_loop(archive.get("gap-t"), archive, features, provider,
                        ScriptedStubChat({}), default_cfg, max_rounds=0)

    def test_missing_target_features_rejected(self, tmp_path, default_cfg):
        archive, features, provider = make_gap_fixture(tmp_path)
        del features["gap-t"]
        with pytest.raises(ComposerError, match=r"^features missing for ids: \['gap-t'\]$"):
            bridge_loop(archive.get("gap-t"), archive, features, provider,
                        ScriptedStubChat({}), default_cfg)

    def test_already_composable_target_rejected(self, tmp_path, default_cfg, monkeypatch):
        """The round-0 pass decides it, before any chat call."""
        archive, features, provider = make_gap_fixture(tmp_path)
        calls = record_selected_targets(monkeypatch)
        with pytest.raises(ValueError, match="^target 'src-b' is already composable$"):
            bridge_loop(archive.get("src-b"), archive, features, provider,
                        ScriptedStubChat({}), default_cfg)
        assert calls == [list(range(len(archive)))]

    def test_hypotheticals_never_reach_effect_predictions(self, tmp_path,
                                                          default_cfg):
        archive, features, provider = make_gap_fixture(tmp_path)
        target = archive.get("gap-t")
        pool = {i: features[i] for i in archive.ids() if i != "gap-t"}
        comp0 = assess(target, features["gap-t"], pool, None, default_cfg)
        literature = [archive.get(c) for c in comp0.neighborhood.candidate_ids[:5]]
        prompt1 = build_bridge_prompt(target, literature, known=[]).prompt
        stub = ScriptedStubChat.from_pairs({
            prompt1: "planted bridge treatment increases common outcome",
        })
        result = bridge_loop(target, archive, features, provider, stub,
                             default_cfg)
        assert result.final_composable
        # Reassess with the hypothetical planted: weights include it, but no
        # effect prediction may be formed from it.
        hypo_feature = build_feature(
            *provider.embed_many(["planted bridge treatment", "common outcome"]))
        augmented = dict(pool)
        augmented["hypothetical:gap-t:1:0"] = hypo_feature
        comp = assess(target, features["gap-t"], augmented,
                      {e.id: e.effect_size for e in archive if e.id != "gap-t"},
                      default_cfg)
        assert comp.weights["hypothetical:gap-t:1:0"] > 0
        assert comp.composed_effect is None
        assert "composed_effect" not in asdict(result)

    def test_unembeddable_proposal_dropped_with_warning(self, tmp_path,
                                                        default_cfg, caplog):
        archive, features, provider = make_gap_fixture(tmp_path)
        target = archive.get("gap-t")
        pool = {i: features[i] for i in archive.ids() if i != "gap-t"}
        comp0 = assess(target, features["gap-t"], pool, None, default_cfg)
        literature = [archive.get(c) for c in comp0.neighborhood.candidate_ids[:5]]
        prompt1 = build_bridge_prompt(target, literature, known=[]).prompt
        response = ("unknown thing increases mystery outcome; "
                    "planted bridge treatment increases common outcome")
        prompt2 = build_bridge_prompt(
            target, literature,
            known=[p.text for p in parse_bridge_response(response)]).prompt
        stub = ScriptedStubChat.from_pairs({prompt1: response, prompt2: response})
        import logging

        with caplog.at_level(logging.WARNING):
            result = bridge_loop(target, archive, features, provider, stub,
                                 default_cfg, max_rounds=2)
        assert result.final_composable  # second proposal still lands
        assert any("dropping proposal" in rec.message for rec in caplog.records)


class TestAuditLog:
    def test_prompts_and_responses_written(self, tmp_path):
        stub = ScriptedStubChat.from_pairs({"p1": "r1", "p2": "r2"})
        audited = AuditingChat(stub, tmp_path / "audit")
        audited.complete(ChatRequest("p1"))
        audited.complete(ChatRequest("p2"))
        files = sorted(f.name for f in (tmp_path / "audit").iterdir())
        assert files == ["001_prompt.txt", "001_response.txt",
                         "002_prompt.txt", "002_response.txt"]
        assert (tmp_path / "audit" / "002_response.txt").read_text(encoding="utf-8") == "r2"
