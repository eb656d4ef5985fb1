from __future__ import annotations

import json

import pytest

from exatlas.archive import (
    Archive,
    ArchiveParseError,
    DuplicateIdError,
    Experiment,
    MissingFieldError,
    RecordValidationError,
    UnknownIdError,
    load_archive,
    save_archive,
)


def make_exp(exp_id="e1", effect=0.5, **kw):
    defaults = dict(
        id=exp_id,
        treatment_text="treatment A",
        outcome_text="outcome B",
        effect_size=effect,
        context_text="ctx",
    )
    defaults.update(kw)
    return Experiment(**defaults)


def write_lines(path, records):
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n",
                    encoding="utf-8")


def record(exp_id, **kw):
    rec = {"id": exp_id, "treatment": "t", "outcome": "o", "context": "c",
           "effect_size": 0.1}
    rec.update(kw)
    return rec


class TestLoad:
    def test_three_valid_records_in_order(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, [record("a"), record("b"), record("c")])
        arc = load_archive(path)
        assert len(arc) == 3
        assert arc.ids() == ("a", "b", "c")

    def test_duplicate_id_names_the_id_and_lines(self, tmp_path):
        path = tmp_path / "a.jsonl"
        recs = [record(f"e{i}") for i in range(3)]
        recs.insert(3, record("exp-7"))
        recs.extend([record(f"f{i}") for i in range(4)])
        recs.append(record("exp-7"))
        write_lines(path, recs)
        with pytest.raises(DuplicateIdError) as err:
            load_archive(path)
        assert "exp-7" in str(err.value)
        assert err.value.lines == (4, 9)

    def test_parse_error_cites_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text(json.dumps(record("a")) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(ArchiveParseError) as err:
            load_archive(path)
        assert err.value.line_no == 2

    def test_missing_field_names_field_and_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        bad = record("b")
        del bad["effect_size"]
        write_lines(path, [record("a"), bad])
        with pytest.raises(MissingFieldError) as err:
            load_archive(path)
        assert err.value.field_name == "effect_size"
        assert err.value.line_no == 2

    @pytest.mark.parametrize("effect", [float("nan"), float("inf"), True])
    def test_bad_effect_rejected(self, tmp_path, effect):
        path = tmp_path / "a.jsonl"
        write_lines(path, [record("a", effect_size=effect)])
        with pytest.raises(RecordValidationError):
            load_archive(path)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, [record("a", treatment="")])
        with pytest.raises(RecordValidationError) as err:
            load_archive(path)
        assert err.value.field_name == "treatment"

    def test_unknown_keys_preserved(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, [record("a", journal_tier="A", n_participants=120)])
        arc = load_archive(path)
        assert arc.get("a").extra == {"journal_tier": "A", "n_participants": 120}


class TestSaveRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        exps = (
            make_exp("a", 0.1),
            make_exp("b", -0.2, enriched_treatment="enr t", enriched_outcome="enr o",
                     source_ref="ref"),
            make_exp("c", 0.0, extra={"note": "kept"}),
        )
        arc = Archive(exps)
        path = tmp_path / "out.jsonl"
        save_archive(arc, path)
        loaded = load_archive(path)
        assert loaded.experiments == exps

    def test_unicode_round_trip(self, tmp_path):
        exp = make_exp("u", 0.3, treatment_text="café exposure ☕",
                       outcome_text="naïve 参加者 rating")
        path = tmp_path / "u.jsonl"
        save_archive(Archive((exp,)), path)
        loaded = load_archive(path)
        assert loaded.get("u").treatment_text == "café exposure ☕"
        assert loaded.get("u").outcome_text == "naïve 参加者 rating"

    def test_empty_archive_round_trip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_archive(Archive(()), path)
        assert len(load_archive(path)) == 0

    def test_save_load_twice_is_stable(self, tmp_path):
        arc = Archive((make_exp("a"), make_exp("b", extra={"z": 1, "a": 2})))
        p1, p2 = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
        save_archive(arc, p1)
        save_archive(load_archive(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestHoldOut:
    def test_holds_out_named_id(self):
        arc = Archive((make_exp("a"), make_exp("b"), make_exp("c")), {"source": "s"})
        target, rest = arc.hold_out("b")
        assert target is arc.get("b")
        assert rest.ids() == ("a", "c")
        assert rest.metadata == {"source": "s"}
        assert rest.metadata is not arc.metadata
        assert arc.ids() == ("a", "b", "c")  # input untouched

    def test_unknown_id(self):
        arc = Archive((make_exp("a"),))
        with pytest.raises(UnknownIdError):
            arc.hold_out("zzz")

    def test_every_holdout_has_size_n_minus_1(self, toy_archive):
        for exp_id in toy_archive.ids():
            _, rest = toy_archive.hold_out(exp_id)
            assert len(rest) == len(toy_archive) - 1
            assert exp_id not in rest


def test_archive_rejects_duplicates_at_construction():
    with pytest.raises(DuplicateIdError):
        Archive((make_exp("x"), make_exp("x")))


def test_toy_archive_has_12_records(toy_archive):
    assert len(toy_archive) == 12
    assert toy_archive.get("toy-007").enriched_treatment is None
