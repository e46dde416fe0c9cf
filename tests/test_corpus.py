import io

from mdprolog.corpus import CorpusCase, load_cases, run_all, run_case


class TestCorpusSuite:
    def test_every_case_passes(self):
        report = io.StringIO()
        passed, results = run_all(report=report)
        failures = [r for r in results if not r.passed]
        assert not failures, "\n".join(
            "%s: %s" % (r.case.name, r.details) for r in failures)
        assert passed == len(results) == len(load_cases())
        assert "%d/%d cases passed" % (passed, passed) in report.getvalue()

    def test_runs_are_deterministic(self):
        for case in load_cases():
            first = run_case(case)
            second = run_case(case)
            assert (first.passed, first.details) == (second.passed, second.details), \
                case.name

    def test_cases_cover_the_feature_areas(self):
        topics = {case.topic for case in load_cases()}
        for topic in ("graph search", "memoization", "objects", "debugging"):
            assert topic in topics, "no corpus case covers %r" % topic

    def test_fresh_variables_are_numbered_in_each_answer(self):
        # an answer's variables that are not the query's print as
        # _G<serial>; a case reads them numbered from _G0, so expected
        # answers can name them and variant answers count as duplicates
        case = CorpusCase(name="fresh", topic="t", programs=[],
                          query="copy_term(f(A, B, A), X)",
                          expect={"solutions": [
                              "A = A, B = B, X = f(_G0, _G1, _G0)"]})
        assert run_case(case).passed
        case = CorpusCase(name="twice", topic="t", programs=[],
                          query="member(_, [a, a]), copy_term(f(V), X)",
                          expect={"hazard": True})
        result = run_case(case)
        assert result.passed and "duplicate solutions" in result.details
