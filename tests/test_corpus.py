import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoclf.corpus import (
    Document,
    LabeledDocument,
    atomic_write,
    read_gold_corpus,
    read_input_corpus,
    stratified_split,
    validate_emotion_name,
    write_gold_corpus,
    write_input_corpus,
    write_predictions,
)
from emoclf.errors import (
    BadLabel,
    ContractViolation,
    CorpusIOError,
    DegenerateClass,
    DuplicateId,
    FieldTooLarge,
    MalformedHeader,
    MalformedRecord,
)


def _labeled(n_pos, n_neg, emotion="joy"):
    docs = []
    for i in range(n_pos + n_neg):
        docs.append(
            LabeledDocument(Document(str(i + 1), f"text {i}"), {emotion: int(i < n_pos)})
        )
    return docs


class TestReadInputCorpus:
    def test_single_record(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("1,great answer!\n", encoding="utf-8")
        assert read_input_corpus(path) == [Document("1", "great answer!")]

    def test_rfc4180_quoting(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text('7,"yes, thanks"\n', encoding="utf-8")
        assert read_input_corpus(path) == [Document("7", "yes, thanks")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("", encoding="utf-8")
        assert read_input_corpus(path) == []

    def test_header_detected(self, tmp_path):
        path = tmp_path / "in.csv"
        # A byte order mark, blank lines, case and spaces around the cells
        # do not hide the header.
        for text in ("id,text\n5,hello\n", "\ufeffid,text\n5,hello\n",
                     "\n\r\nid,text\n\n5,hello\n", "ID, Text \n5,hello\n"):
            path.write_text(text, encoding="utf-8")
            assert read_input_corpus(path) == [Document("5", "hello")], text

    def test_headerless_accepted(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("5,hello\n6,bye\n", encoding="utf-8")
        assert [d.id for d in read_input_corpus(path)] == ["5", "6"]

    def test_embedded_newline(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text('9,"line one\nline two"\n', encoding="utf-8")
        assert read_input_corpus(path) == [Document("9", "line one\nline two")]

    def test_unquoted_commas_fold_into_text(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("3,a,b,c\n", encoding="utf-8")
        assert read_input_corpus(path) == [Document("3", "a,b,c")]

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("1,a\n1,b\n", encoding="utf-8")
        with pytest.raises(DuplicateId) as err:
            read_input_corpus(path)
        assert err.value.doc_id == "1"
        assert err.value.line == 2

    def test_too_few_fields(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("justone\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            read_input_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusIOError):
            read_input_corpus(tmp_path / "nope.csv")


class TestReadGoldCorpus:
    def test_basic(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text('id,text,joy\n3,"works now :)",1\n', encoding="utf-8")
        docs, emotions = read_gold_corpus(path)
        assert emotions == ["joy"]
        assert docs[0].labels == {"joy": 1}
        assert docs[0].doc.text == "works now :)"

    def test_six_emotion_header_order(self, tmp_path):
        path = tmp_path / "gold.csv"
        for prefix in ("", "\ufeff", "\n\n", "\ufeff\n"):
            for id_text in ("id,text", " ID,Text "):
                path.write_text(
                    f"{prefix}{id_text},love,joy,surprise,anger,sadness,fear\n"
                    "1,hello,0,1,0,0,0,0\n",
                    encoding="utf-8",
                )
                docs, emotions = read_gold_corpus(path)
                assert emotions == ["love", "joy", "surprise", "anger", "sadness", "fear"]
                assert [labeled.doc for labeled in docs] == [Document("1", "hello")]

    def test_bad_label_cell(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("id,text,joy\n1,hello,2\n", encoding="utf-8")
        with pytest.raises(BadLabel) as err:
            read_gold_corpus(path)
        assert err.value.line == 2
        assert err.value.column == 3

    def test_missing_header(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("1,hello,1\n", encoding="utf-8")
        with pytest.raises(MalformedHeader):
            read_gold_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MalformedHeader):
            read_gold_corpus(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("id,text,joy\n1,hello\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            read_gold_corpus(path)

    def test_bad_emotion_name(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("id,text,JOY!\n1,hello,1\n", encoding="utf-8")
        with pytest.raises(MalformedHeader):
            read_gold_corpus(path)


class TestFieldLimit:
    """Fields longer than the csv module's default limit fail with their own error."""

    LIMIT = 131072

    @pytest.mark.parametrize("length", [LIMIT, LIMIT + 1])
    def test_input_corpus(self, tmp_path, length):
        path = tmp_path / "in.csv"
        path.write_text(f"id,text\n1,short\n2,{'x' * length}\n", encoding="utf-8")
        if length <= self.LIMIT:
            assert len(read_input_corpus(path)[1].text) == length
            return
        with pytest.raises(FieldTooLarge) as err:
            read_input_corpus(path)
        assert err.value.line == 3 and err.value.limit == self.LIMIT
        assert "line 3" in str(err.value) and str(self.LIMIT) in str(err.value)

    def test_gold_corpus(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text(
            f"id,text,joy\n1,fine,1\n2,\"{'y' * (self.LIMIT + 1)}\",0\n", encoding="utf-8"
        )
        with pytest.raises(FieldTooLarge) as err:
            read_gold_corpus(path)
        assert err.value.line == 3 and err.value.limit == self.LIMIT

    def test_gold_header(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text(f"id,text,{'j' * (self.LIMIT + 1)}\n", encoding="utf-8")
        with pytest.raises(FieldTooLarge) as err:
            read_gold_corpus(path)
        assert err.value.line == 1


class TestWritePredictions:
    def test_positive_and_negative_rows(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions(path, [("12", "joy", 1), ("12", "anger", 0)])
        assert path.read_text(encoding="utf-8") == "id,label\n12,JOY\n12,NO_ANGER\n"

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions(path, [])
        assert path.read_text(encoding="utf-8") == "id,label\n"

    def test_failure_partway_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions(path, [("1", "joy", 1)])

        def rows():
            yield ("2", "joy", 0)
            raise RuntimeError("scoring failed")

        with pytest.raises(RuntimeError):
            write_predictions(path, rows())
        assert path.read_text(encoding="utf-8") == "id,label\n1,JOY\n"
        assert os.listdir(tmp_path) == ["pred.csv"]

    def test_missing_directory_raises_corpus_io_error(self, tmp_path):
        with pytest.raises(CorpusIOError):
            write_predictions(tmp_path / "missing" / "pred.csv", [])


class TestAtomicWrite:
    def test_replaces_the_target_with_exactly_what_was_written(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with atomic_write(path) as handle:
            handle.write("new\r\nline\n")
        assert path.read_bytes() == b"new\r\nline\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_partway_keeps_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("half of the new")
                handle.flush()
                raise RuntimeError("serializer failed")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_creates_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_write(tmp_path / "out.txt") as handle:
                handle.write("x")
                raise RuntimeError("serializer failed")
        assert os.listdir(tmp_path) == []

    def test_unwritable_directory_names_the_target(self, tmp_path):
        path = tmp_path / "no_such_dir" / "out.txt"
        with pytest.raises(FileNotFoundError) as raised:
            with atomic_write(path):
                pass
        assert raised.value.filename == str(path)


class TestRoundTrips:
    # \r is normalized by universal newlines and \x00 is unreadable for the
    # csv module, so neither can round-trip through this dialect.
    _FIELD_TEXT = st.text(
        st.characters(codec="utf-8", exclude_characters="\r\x00"), max_size=40
    )
    # What a spreadsheet or an editor may put ahead of the header: a UTF-8
    # byte order mark and blank lines.
    _PREFIXES = (b"", b"\xef\xbb\xbf", b"\n", b"\r\n\n", b"\xef\xbb\xbf\n")

    @given(
        st.lists(
            st.tuples(
                st.text(
                    st.characters(codec="utf-8", exclude_characters="\r\x00"),
                    min_size=1,
                    max_size=8,
                ),
                _FIELD_TEXT,
            ),
            max_size=8,
        ),
        st.sampled_from(_PREFIXES),
    )
    @settings(max_examples=100)
    def test_input_corpus_round_trip(self, tmp_path_factory, pairs, prefix):
        seen = set()
        docs = []
        for i, (suffix, text) in enumerate(pairs):
            doc_id = f"{i}_{suffix}"
            if doc_id in seen:
                continue
            seen.add(doc_id)
            docs.append(Document(doc_id, text))
        path = tmp_path_factory.mktemp("rt") / "corpus.csv"
        write_input_corpus(path, docs)
        path.write_bytes(prefix + path.read_bytes())
        assert read_input_corpus(path) == docs

    def test_gold_round_trip_with_tricky_text(self, tmp_path):
        docs = [
            LabeledDocument(Document("1", 'has "quotes", commas\nand newlines'), {"joy": 1}),
            LabeledDocument(Document("2", ""), {"joy": 0}),
        ]
        path = tmp_path / "gold.csv"
        write_gold_corpus(path, docs, ["joy"])
        written = path.read_bytes()
        for prefix in self._PREFIXES:
            path.write_bytes(prefix + written)
            back, emotions = read_gold_corpus(path)
            assert emotions == ["joy"]
            assert back == docs


class TestStratifiedSplit:
    def test_table_like_arithmetic(self):
        corpus = _labeled(45, 4755, "surprise")
        result = stratified_split(corpus, "surprise", 0.7, seed=42)
        assert len(result.train) == 3360
        assert len(result.test) == 1440
        assert sum(d.labels["surprise"] for d in result.train) == 32
        assert sum(d.labels["surprise"] for d in result.test) == 13

    def test_even_split(self):
        corpus = _labeled(2, 2)
        result = stratified_split(corpus, "joy", 0.5, seed=1)
        assert sum(d.labels["joy"] for d in result.train) == 1
        assert sum(d.labels["joy"] for d in result.test) == 1
        assert len(result.train) == len(result.test) == 2

    def test_deterministic(self):
        corpus = _labeled(30, 70)
        a = stratified_split(corpus, "joy", 0.7, seed=9)
        b = stratified_split(corpus, "joy", 0.7, seed=9)
        assert a == b

    def test_seed_changes_membership_not_counts(self):
        corpus = _labeled(30, 70)
        a = stratified_split(corpus, "joy", 0.7, seed=1)
        b = stratified_split(corpus, "joy", 0.7, seed=2)
        assert a.train != b.train
        assert sum(d.labels["joy"] for d in a.train) == sum(
            d.labels["joy"] for d in b.train
        )
        assert len(a.train) == len(b.train)

    def test_single_class_rejected(self):
        corpus = _labeled(5, 0)
        with pytest.raises(DegenerateClass):
            stratified_split(corpus, "joy", 0.7, seed=0)

    def test_bad_fraction_rejected(self):
        corpus = _labeled(2, 2)
        with pytest.raises(ContractViolation):
            stratified_split(corpus, "joy", 1.0, seed=0)

    @given(
        n_pos=st.integers(min_value=1, max_value=60),
        n_neg=st.integers(min_value=1, max_value=60),
        fraction=st.sampled_from([0.5, 0.6, 0.7, 0.75, 0.8, 0.3]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=150)
    def test_partition_and_per_class_counts(self, n_pos, n_neg, fraction, seed):
        corpus = _labeled(n_pos, n_neg)
        result = stratified_split(corpus, "joy", fraction, seed)
        got = sorted(d.doc.id for d in result.train) + sorted(
            d.doc.id for d in result.test
        )
        assert sorted(got) == sorted(d.doc.id for d in corpus)
        assert not set(d.doc.id for d in result.train) & set(
            d.doc.id for d in result.test
        )
        assert result.train == tuple(corpus[i] for i in result.train_index)
        assert result.test == tuple(corpus[i] for i in result.test_index)
        for value, size in ((1, n_pos), (0, n_neg)):
            expected = round(size * Fraction(str(fraction)))
            assert sum(1 for d in result.train if d.labels["joy"] == value) == expected


class TestEmotionNames:
    @pytest.mark.parametrize("name", ["joy", "Love", "has_underscore", "x9"])
    def test_accepted(self, name):
        assert validate_emotion_name(name) == name.lower()

    @pytest.mark.parametrize("name", ["", "9joy", "JOY!", "with space", "_lead"])
    def test_rejected(self, name):
        with pytest.raises(MalformedHeader):
            validate_emotion_name(name)
