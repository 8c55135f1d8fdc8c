#!/usr/bin/env python3
"""Fixture tests for aces_lint: every bad fixture's planted findings are
reported (and nothing else), the clean fixture is silent under all rule
groups, and the suppression / comment-stripping corner cases hold."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import aces_lint  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "lint_fixtures")


def lint_fixture(name, groups):
    path = os.path.join(FIXTURES, name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return aces_lint.lint_text(name, text, groups)


def rules(findings):
    return sorted(f.rule for f in findings)


class FixtureTests(unittest.TestCase):
    def test_bad_random_flags_every_draw(self):
        findings = lint_fixture("bad_random.cc", {"fingerprint"})
        self.assertEqual(
            rules(findings),
            ["nondet-random", "nondet-random", "nondet-random"])
        self.assertEqual(sorted(f.line for f in findings), [6, 7, 8])

    def test_bad_wall_clock_flags_wall_reads_only(self):
        findings = lint_fixture("bad_wall_clock.cc", {"fingerprint"})
        self.assertEqual(rules(findings), ["wall-clock"] * 4)
        # steady_clock (line 17) and advance_time (line 23) stay clean.
        self.assertEqual(sorted(f.line for f in findings), [7, 8, 10, 12])

    def test_bad_unordered_flags_includes_and_declarations(self):
        # The two #include lines count too: pulling the header into a
        # fingerprinted path is the same intent as using it.
        findings = lint_fixture("bad_unordered.cc", {"fingerprint"})
        self.assertEqual(rules(findings), ["unordered-iter"] * 4)
        self.assertEqual(sorted(f.line for f in findings), [4, 5, 8, 9])

    def test_bad_report_format_flags_lossy_specs_only(self):
        findings = lint_fixture("bad_report_format.cc", {"report"})
        self.assertEqual(rules(findings), ["float-format"] * 4)
        self.assertEqual(sorted(f.line for f in findings), [6, 7, 8, 9])

    def test_bad_bench_json_flags_lossy_specs_only(self):
        # Bench JSON writers are report-group files; the sanctioned %.17g
        # and an annotated prose percent stay clean.
        findings = lint_fixture("bad_bench_json.cc", {"report"})
        self.assertEqual(rules(findings), ["float-format"] * 3)
        self.assertEqual(sorted(f.line for f in findings), [8, 9, 11])

    def test_bad_hotpath_flags_raw_mutex_new_delete(self):
        findings = lint_fixture("bad_hotpath.cc", {"hotpath"})
        self.assertEqual(
            rules(findings),
            ["raw-delete", "raw-delete", "raw-mutex", "raw-mutex",
             "raw-new", "raw-new"])
        # make_unique (line 29), `= delete;` (lines 27-28), and keyword
        # substrings in identifiers (line 34) stay clean.
        self.assertEqual(sorted(f.line for f in findings),
                         [10, 11, 14, 15, 16, 21])

    def test_bad_wire_flags_struct_overlays_only(self):
        findings = lint_fixture("bad_wire.cc", {"wire"})
        self.assertEqual(
            rules(findings),
            ["cast-decode", "cast-decode", "memcpy-decode", "memcpy-decode"])
        # Byte-array copies (line 36), byte views (line 40), and the
        # sockaddr pun (line 44) stay clean.
        self.assertEqual(sorted(f.line for f in findings), [15, 21, 26, 30])

    def test_bad_atomics_flags_raw_atomics_and_thread_fences(self):
        findings = lint_fixture("bad_atomics.cc", {"atomics"})
        self.assertEqual(rules(findings),
                         ["raw-atomic", "raw-atomic", "raw-fence"])
        # The shim type (17), aces::atomic_fence (20), the signal fence
        # (27), and the reasoned escape (32) stay clean.
        self.assertEqual(sorted(f.line for f in findings), [8, 9, 12])

    def test_clean_fixture_is_silent_under_all_groups(self):
        findings = lint_fixture("clean.cc", {"fingerprint", "report",
                                             "hotpath", "atomics", "wire"})
        self.assertEqual(findings, [])

    def test_hotpath_rules_do_not_apply_to_fingerprint_files(self):
        findings = lint_fixture("bad_hotpath.cc", {"fingerprint"})
        self.assertEqual(findings, [])

    def test_report_rules_do_not_apply_to_fingerprint_only_files(self):
        findings = lint_fixture("bad_report_format.cc", {"fingerprint"})
        self.assertEqual(findings, [])

    def test_wire_rules_do_not_apply_to_hotpath_only_files(self):
        # src/runtime files outside wire.{h,cc} / transport/ may memcpy
        # into objects they own; only the codec scope is banned.
        findings = lint_fixture("bad_wire.cc", {"hotpath"})
        self.assertEqual(findings, [])

    def test_atomics_rules_do_not_apply_to_fingerprint_files(self):
        # The simulator is single-threaded; std::atomic there is unusual
        # but not a shim-coverage hole.
        findings = lint_fixture("bad_atomics.cc", {"fingerprint"})
        self.assertEqual(findings, [])


class MechanismTests(unittest.TestCase):
    def test_comment_mentions_are_not_findings(self):
        text = "// rand() and time( and unordered_map in prose\nint x = 0;\n"
        self.assertEqual(aces_lint.lint_text("t.cc", text, {"fingerprint"}),
                         [])

    def test_string_literal_random_is_a_finding(self):
        # The rules run on comment-stripped (not string-stripped) text:
        # generated-code templates embedding rand() deserve a look.
        text = 'int x = rand();\n'
        self.assertEqual(rules(aces_lint.lint_text("t.cc", text,
                                                   {"fingerprint"})),
                         ["nondet-random"])

    def test_allow_with_reason_suppresses_same_and_next_line(self):
        text = ("// aces-lint: allow(wall-clock) boot banner only\n"
                "std::time_t t = std::time(nullptr);\n")
        self.assertEqual(aces_lint.lint_text("t.cc", text, {"fingerprint"}),
                         [])

    def test_bare_allow_is_itself_a_finding(self):
        text = ("std::time_t t = std::time(nullptr);"
                "  // aces-lint: allow(wall-clock)\n")
        found = rules(aces_lint.lint_text("t.cc", text, {"fingerprint"}))
        self.assertIn("bare-allow", found)

    def test_allow_only_covers_the_named_rule(self):
        text = ("// aces-lint: allow(wall-clock) reason here\n"
                "int x = rand();\n")
        self.assertEqual(rules(aces_lint.lint_text("t.cc", text,
                                                   {"fingerprint"})),
                         ["nondet-random"])

    def test_raw_string_literals_do_not_derail_the_scanner(self):
        text = ('const char* kDoc = R"(use rand() wisely)";\n'
                "int y = rand();\n")
        findings = aces_lint.lint_text("t.cc", text, {"fingerprint"})
        self.assertEqual([f.line for f in findings], [1, 2])


class ClassifyTests(unittest.TestCase):
    def test_bench_writers_and_cli_are_report_scope(self):
        self.assertIn("report",
                      aces_lint.classify("bench/fig5_burstiness.cc"))
        self.assertIn("report", aces_lint.classify("tools/aces_cli.cc"))
        self.assertIn("report",
                      aces_lint.classify("src/metrics/report_fingerprint.cc"))

    def test_metrics_is_fingerprint_scope(self):
        self.assertIn("fingerprint",
                      aces_lint.classify("src/metrics/collector.cc"))

    def test_runtime_is_hotpath_and_atomics_scope(self):
        self.assertEqual(aces_lint.classify("src/runtime/spsc_ring.h"),
                         {"hotpath", "atomics"})
        self.assertEqual(aces_lint.classify("src/runtime/runtime_engine.cc"),
                         {"hotpath", "atomics"})
        self.assertNotIn("hotpath", aces_lint.classify("src/sim/simulator.cc"))

    def test_pe_kernel_is_fingerprint_and_hotpath_scope(self):
        # The kernel runs inside the deterministic substrates and on the
        # threaded runtime's node threads, so both rule groups apply.
        self.assertEqual(aces_lint.classify("src/pe/pe_core.h"),
                         {"fingerprint", "hotpath"})
        self.assertEqual(aces_lint.classify("src/pe/pe_core.cc"),
                         {"fingerprint", "hotpath"})
        self.assertNotIn("hotpath", aces_lint.classify("src/perf/x.cc"))

    def test_wire_scope_is_codec_and_transport_files(self):
        self.assertEqual(aces_lint.classify("src/runtime/wire.h"),
                         {"hotpath", "atomics", "wire"})
        self.assertEqual(aces_lint.classify("src/runtime/wire.cc"),
                         {"hotpath", "atomics", "wire"})
        self.assertEqual(aces_lint.classify("src/runtime/transport/uds.cc"),
                         {"hotpath", "atomics", "wire"})
        self.assertEqual(aces_lint.classify("src/runtime/dist_worker.cc"),
                         {"hotpath", "atomics"})

    def test_obs_is_atomics_scope(self):
        self.assertIn("atomics", aces_lint.classify("src/obs/spans.h"))
        self.assertIn("atomics", aces_lint.classify("src/obs/registry.cc"))
        self.assertNotIn("atomics", aces_lint.classify("src/sim/simulator.cc"))
        self.assertNotIn("atomics", aces_lint.classify("src/common/atomic_shim.h"))

    def test_cluster_aggregate_is_report_scope(self):
        self.assertIn("report",
                      aces_lint.classify("src/obs/cluster_aggregate.cc"))

    def test_fixtures_and_headers_stay_out_of_report_scope(self):
        self.assertEqual(
            aces_lint.classify("tools/lint_fixtures/bad_bench_json.cc"),
            set())
        self.assertNotIn("report", aces_lint.classify("bench/nested/x.cc"))
        self.assertNotIn("report", aces_lint.classify("tools/aces_lint.py"))


class CliTests(unittest.TestCase):
    def test_tree_scope_is_clean(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.assertEqual(aces_lint.main(["--root", root]), 0)

    def test_tree_scan_visits_each_file_once(self):
        # src/pe sits in two rule groups; it must not be scanned twice.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        files = list(aces_lint.iter_source_files(root))
        self.assertEqual(len(files), len(set(files)))
        self.assertIn(os.path.join("src", "pe", "pe_core.h"), files)

    def test_fixture_paths_with_forced_groups_fail(self):
        rc = aces_lint.main([
            "--force-groups", "fingerprint",
            os.path.join(FIXTURES, "bad_random.cc"),
        ])
        self.assertEqual(rc, 1)

    def test_bad_force_groups_is_a_usage_error(self):
        rc = aces_lint.main(["--force-groups", "bogus",
                             os.path.join(FIXTURES, "clean.cc")])
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
