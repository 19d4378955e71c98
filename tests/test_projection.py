import pytest

from mpalign.projection import (
    ProjectionSource,
    filter_x,
    project,
    write_conll,
)


def src(lang, tags, links):
    return ProjectionSource(lang, [(f"w{i}", t) for i, t in enumerate(tags)], set(links))


class TestProject:
    def test_majority(self):
        sources = [
            src("eng", ["NOUN"], {(0, 0)}),
            src("deu", ["NOUN"], {(0, 0)}),
            src("fra", ["VERB"], {(0, 0)}),
        ]
        out = project("v1", ["tok"], sources)
        assert out.tags == ("NOUN",)

    def test_no_votes_gives_x(self):
        out = project("v1", ["tok", "tok2"], [src("eng", ["NOUN"], {(0, 0)})])
        assert out.tags == ("NOUN", "X")

    def test_tie_breaks_by_priority(self):
        # the priority is the order of the sources
        eng = src("eng", ["NOUN"], {(0, 0)})
        fra = src("fra", ["VERB"], {(0, 0)})
        assert project("v1", ["t"], [eng, fra]).tags == ("NOUN",)
        assert project("v1", ["t"], [fra, eng]).tags == ("VERB",)

    def test_default_priority_is_source_order(self):
        sources = [
            src("fra", ["VERB"], {(0, 0)}),
            src("eng", ["NOUN"], {(0, 0)}),
        ]
        assert project("v1", ["t"], sources).tags == ("VERB",)

    def test_multiple_links_one_source_one_vote_each(self):
        # two aligned source tokens in ONE language contribute two votes
        source = src("eng", ["NOUN", "NOUN", "VERB"], {(0, 0), (0, 1), (0, 2)})
        out = project("v1", ["t"], [source])
        assert out.tags == ("NOUN",)
        assert len(out.votes[0]) == 3

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            project("v1", ["t"], [src("eng", ["NOUN"], {(5, 0)})])

    def test_deterministic(self):
        sources = [
            src("eng", ["NOUN", "VERB"], {(0, 0), (0, 1)}),
            src("deu", ["ADJ"], {(0, 0)}),
        ]
        tags = {project("v1", ["t"], sources).tags for _ in range(5)}
        assert len(tags) == 1


class TestDirectTransfer:
    """Projection from a single source language."""

    def test_one_to_one_copies(self):
        source = src("eng", ["DET", "NOUN"], {(0, 0), (1, 1)})
        out = project("v1", ["le", "chien"], [source])
        assert out.tags == ("DET", "NOUN")

    def test_tie_takes_first_occurrence(self):
        source = src("eng", ["NOUN", "VERB"], {(0, 0), (0, 1)})
        out = project("v1", ["t"], [source])
        assert out.tags == ("NOUN",)

    def test_unaligned_gets_x(self):
        source = src("eng", ["NOUN"], {(0, 0)})
        out = project("v1", ["a", "b"], [source])
        assert out.tags == ("NOUN", "X")


class TestFilterX:
    def make(self, tags):
        return project(
            "v1",
            [f"t{i}" for i in range(len(tags))],
            [
                src(
                    "eng",
                    [t for t in tags if t != "X"],
                    {
                        (i, j)
                        for j, (i, t) in enumerate(
                            [(i, t) for i, t in enumerate(tags) if t != "X"]
                        )
                    },
                )
            ],
        )

    def test_three_quarters_x_dropped(self):
        sent = self.make(["NOUN", "X", "X", "X"])
        assert sent.x_fraction() == 0.75
        assert filter_x([sent]) == []

    def test_exactly_half_kept(self):
        sent = self.make(["NOUN", "VERB", "X", "X"])
        assert sent.x_fraction() == 0.5
        assert filter_x([sent]) == [sent]

    def test_no_x_kept(self):
        sent = self.make(["NOUN", "VERB"])
        assert filter_x([sent]) == [sent]

    def test_output_respects_filter(self):
        sents = [self.make(t) for t in (["X", "X", "NOUN"], ["NOUN"], ["X"])]
        kept = filter_x(sents)
        assert all(s.x_fraction() <= 0.5 for s in kept)
        assert len(kept) == 1


class TestConll:
    def test_format(self, tmp_path):
        sent = project("v1", ["le", "chien"],
                       [src("eng", ["DET", "NOUN"], {(0, 0), (1, 1)})])
        path = tmp_path / "out.conll"
        write_conll([sent, sent], path)
        text = path.read_text()
        assert text == "le\tDET\nchien\tNOUN\n\nle\tDET\nchien\tNOUN\n\n"
