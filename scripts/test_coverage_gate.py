#!/usr/bin/env python3
"""Tests of coverage_gate.py's comparison step (run by ctest).

Feeds parse_gcov() hand-made gcov JSON documents, one per pass, and checks
what compare() makes of them against an allowlist: a clean set passes, an
unlisted site only tests reach fails, a stale entry fails, an entry excuses
one site of its name only, and a template that production reaches through
one instantiation passes although tests reach it through another.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import coverage_gate  # noqa: E402

SRC = "/repo/src"


def fn(name, line, count):
    return {"demangled_name": name, "start_line": line, "execution_count": count}


def doc(*files):
    """One gcov document: (path under src/, [functions]) per file."""
    return {"current_working_directory": "/repo/build",
            "files": [{"file": f"{SRC}/{path}", "functions": fns, "lines": []}
                      for path, fns in files]}


def verdict(prod_docs, test_docs, allowlist=""):
    prod, _, _ = coverage_gate.parse_gcov(prod_docs, SRC)
    tests, _, _ = coverage_gate.parse_gcov(test_docs, SRC)
    entries, errors = coverage_gate.parse_allowlist(allowlist)
    assert not errors, errors
    return coverage_gate.compare(prod, tests, entries)


class CompareTest(unittest.TestCase):
    def test_clean_set_passes(self):
        run = [doc(("a/x.cc", [fn("usw::a::f(int)", 3, 2)]))]
        offenders, stale, _ = verdict(run, run)
        self.assertEqual(offenders, [])
        self.assertEqual(stale, [])

    def test_unlisted_site_only_tests_reach_fails(self):
        prod = [doc(("a/x.cc", [fn("usw::a::f(int)", 3, 2), fn("usw::a::g()", 9, 0)]))]
        tests = [doc(("a/x.cc", [fn("usw::a::f(int)", 3, 1), fn("usw::a::g()", 9, 4)]))]
        offenders, stale, unreached = verdict(prod, tests)
        self.assertEqual(offenders, [coverage_gate.Site("src/a/x.cc", 9)])
        self.assertEqual(unreached[offenders[0]], "tests")
        self.assertEqual(stale, [])
        # Listed with a reason, the same site passes.
        offenders, stale, _ = verdict(prod, tests, "src/a/x.cc  g  error path\n")
        self.assertEqual(offenders, [])
        self.assertEqual(stale, [])

    def test_stale_entry_fails(self):
        run = [doc(("a/x.cc", [fn("usw::a::f(int)", 3, 2)]))]
        # Production reaches f; h no longer exists.
        _, stale, _ = verdict(run, run, "src/a/x.cc  f  error path\n"
                                        "src/a/x.cc  h  test reference\n")
        self.assertEqual([(e.function, why) for e, why in stale],
                         [("f", "production reaches it"), ("h", "no such function")])

    def test_entry_excuses_one_site_of_its_name(self):
        # f and a lambda inside it share a name; production reaches neither.
        run = [doc(("a/x.cc", [fn("usw::a::f(int)", 3, 0),
                               fn("usw::a::f(int)::{lambda(int)#1}::operator()(int) const",
                                  5, 0)]))]
        offenders, stale, _ = verdict(run, run, "src/a/x.cc  f  error path\n")
        self.assertEqual(offenders, [coverage_gate.Site("src/a/x.cc", 5)])
        self.assertEqual(stale, [])
        # A second entry excuses the second site, and a third is stale.
        offenders, stale, _ = verdict(run, run, "src/a/x.cc  f  error path\n" * 2)
        self.assertEqual(offenders, [])
        self.assertEqual(stale, [])
        _, stale, _ = verdict(run, run, "src/a/x.cc  f  error path\n" * 3)
        self.assertEqual([e.lineno for e, _ in stale], [3])

    def test_template_reached_through_another_instantiation_passes(self):
        # One definition site, two instantiations recorded in two
        # translation units: production runs the double one, tests the int.
        prod = [doc(("a/t.h", [fn("double usw::a::twice<double>(double)", 5, 3)])),
                doc(("a/t.h", [fn("int usw::a::twice<int>(int)", 5, 0)]))]
        tests = [doc(("a/t.h", [fn("int usw::a::twice<int>(int)", 5, 7)]))]
        offenders, stale, unreached = verdict(prod, tests)
        self.assertEqual(offenders, [])
        self.assertEqual(unreached, {})


class AllowlistTest(unittest.TestCase):
    def test_reason_is_checked(self):
        _, errors = coverage_gate.parse_allowlist("src/a/x.cc  f  unused\n")
        self.assertEqual(len(errors), 1)
        _, errors = coverage_gate.parse_allowlist("src/a/x.cc  f  test accessor\n")
        self.assertIn("names the test", errors[0])
        entries, errors = coverage_gate.parse_allowlist(
            "# comment\nsrc/a/x.cc  A::f  test accessor: Suite.Name  # why\n")
        self.assertEqual(errors, [])
        self.assertEqual((entries[0].function, entries[0].reason, entries[0].note),
                         ("A::f", "test accessor", "Suite.Name"))


class NameTest(unittest.TestCase):
    def test_qualified_names(self):
        cases = {
            "double usw::obs::f<double>(double)": "usw::obs::f",
            "usw::obs::SpanBuilder::finish()::{lambda(unsigned long)#1}::operator()"
            "(unsigned long) const": "usw::obs::SpanBuilder::finish",
            "usw::grid::operator<<(std::ostream&, usw::grid::IntVec)": "usw::grid::operator<<",
            "usw::check::(anonymous namespace)::describe(int)":
                "usw::check::{anonymous}::describe",
            "usw::X::operator bool() const": "usw::X::operator bool",
            "usw::check::Violation::to_string[abi:cxx11]() const":
                "usw::check::Violation::to_string",
        }
        for demangled, want in cases.items():
            self.assertEqual(coverage_gate.qualified_name(demangled), want)


if __name__ == "__main__":
    unittest.main()
