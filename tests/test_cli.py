import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from semwsdl import annotate_description, cli, parse_wsdl, write_sawsdl
from semwsdl.xmlio import parse_xml

from conftest import CORPUS_DIR, IMPORTS_DIR, LEXICON_PATH, REPO_ROOT, SPECIAL_DIR

MINIMAL = """<?xml version="1.0"?>
<wsdl:definitions targetNamespace="urn:t"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="urn:t">
  <wsdl:message name="In"><wsdl:part name="city" type="xsd:string"/></wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Find"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
</wsdl:definitions>
"""


def base_args(command, inputs, out_dir):
    return [command,
            "--input-paths", *[str(p) for p in inputs],
            "--output-dir", str(out_dir),
            "--lexicon-path", str(LEXICON_PATH)]


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text("utf-8"))


def test_annotate_full_corpus(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.run(base_args("annotate", [CORPUS_DIR], out))
    assert code == 0
    produced = sorted(p.name for p in out.iterdir())
    assert "report.json" in produced
    assert len([n for n in produced if n.endswith(".sawsdl.wsdl")]) == 10
    report = read_report(out)
    assert report["summary"]["total"] == 27
    assert report["summary"]["annotated"] == 19
    assert report["skipped"] == []
    assert "annotated 19/27 parameters across 10 files" in capsys.readouterr().err


def test_annotate_single_file(tmp_path):
    out = tmp_path / "out"
    code = cli.run(base_args("annotate", [CORPUS_DIR / "music_catalog.wsdl"], out))
    assert code == 0
    assert (out / "music_catalog.sawsdl.wsdl").exists()
    assert read_report(out)["summary"]["total"] == 2


def test_annotate_reports_skipped_and_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.run(base_args(
        "annotate", [CORPUS_DIR, SPECIAL_DIR / "corrupt.wsdl"], out))
    assert code == 1
    report = read_report(out)
    assert len(report["skipped"]) == 1
    assert "corrupt.wsdl" in report["skipped"][0]["path"]
    assert "skipped" in capsys.readouterr().err


def test_part_names_that_look_like_suffixes_get_distinct_ids(tmp_path):
    parts = "".join(f'<wsdl:part name="{name}" type="xsd:string"/>'
                    for name in ("city", "city", "city::2"))
    (tmp_path / "cities.wsdl").write_text(MINIMAL.replace(
        '<wsdl:part name="city" type="xsd:string"/>', parts))
    shutil.copy(CORPUS_DIR / "music_catalog.wsdl", tmp_path)
    out = tmp_path / "out"
    assert cli.run(base_args("annotate", [tmp_path], out)) == 0
    assert sorted(p.name for p in out.glob("*.sawsdl.wsdl")) == [
        "cities.sawsdl.wsdl", "music_catalog.sawsdl.wsdl"]
    ids = [record["param_id"] for record in read_report(out)["parameters"]]
    assert len(ids) == 5
    assert len(set(ids)) == 5


def test_copy_that_cannot_be_written_is_skipped(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "music_catalog.sawsdl.wsdl").mkdir(parents=True)
    code = cli.run(base_args("annotate", [CORPUS_DIR], out))
    assert code == 1
    assert len([p for p in out.glob("*.sawsdl.wsdl") if p.is_file()]) == 9
    report = read_report(out)
    assert report["summary"]["total"] == 25
    assert not any("music_catalog" in r["param_id"] for r in report["parameters"])
    [skip] = report["skipped"]
    assert skip["path"] == str(CORPUS_DIR / "music_catalog.wsdl")
    assert skip["error"].startswith("write error:")
    err = capsys.readouterr().err
    assert f"skipped {CORPUS_DIR / 'music_catalog.wsdl'}: write error:" in err
    assert "parameters across 9 files" in err


def test_directory_and_file_inputs_deduplicate(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    code = cli.run(base_args(
        "annotate", [CORPUS_DIR / "music_catalog.wsdl", CORPUS_DIR], out))
    assert code == 0
    assert len(list(out.glob("*.sawsdl.wsdl"))) == 10
    # the same file in two spellings is annotated once, under the first
    monkeypatch.chdir(CORPUS_DIR.parent)
    single = tmp_path / "single"
    code = cli.run(base_args("annotate", ["corpus", "./corpus/music_catalog.wsdl"], single))
    assert code == 0
    assert len(list(single.glob("*.sawsdl.wsdl"))) == 10
    assert "annotated 19/27 parameters across 10 files" in capsys.readouterr().err
    ids = [record["param_id"] for record in read_report(single)["parameters"]]
    assert any(param_id.startswith("corpus/music_catalog.wsdl::") for param_id in ids)


def test_deep_nesting_is_written_without_recursion(tmp_path):
    depth = 5000
    nested = "<note>" * depth + "</note>" * depth
    source = (CORPUS_DIR / "music_catalog.wsdl").read_text("utf-8")
    (tmp_path / "deep.wsdl").write_text(source.replace(
        "<wsdl:types>", f"<wsdl:documentation>{nested}</wsdl:documentation><wsdl:types>", 1))
    shutil.copy(CORPUS_DIR / "auth_service.wsdl", tmp_path)
    out = tmp_path / "out"
    code = cli.run(base_args(
        "annotate", [tmp_path / "deep.wsdl", tmp_path / "auth_service.wsdl"], out))
    assert code == 0
    assert sorted(p.name for p in out.glob("*.sawsdl.wsdl")) == [
        "auth_service.sawsdl.wsdl", "deep.sawsdl.wsdl"]
    element = parse_xml((out / "deep.sawsdl.wsdl").read_bytes()).children[0]
    reached = 0
    while (element := next(iter(element.children), None)) is not None:
        reached += 1
    assert reached == depth


def test_doctype_input_is_skipped(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.run(base_args(
        "annotate", [CORPUS_DIR / "music_catalog.wsdl", SPECIAL_DIR / "doctype_entity.wsdl"],
        out))
    assert code == 1
    assert [p.name for p in out.glob("*.sawsdl.wsdl")] == ["music_catalog.sawsdl.wsdl"]
    skipped = read_report(out)["skipped"]
    assert [Path(s["path"]).name for s in skipped] == ["doctype_entity.wsdl"]
    assert "DOCTYPE" in skipped[0]["error"]
    assert "skipped" in capsys.readouterr().err


def test_xmlns_colon_input_is_skipped_and_named_once(tmp_path, capsys):
    bad = tmp_path / "bad.wsdl"
    bad.write_text((CORPUS_DIR / "music_catalog.wsdl").read_text("utf-8").replace(
        "<wsdl:definitions", '<wsdl:definitions xmlns:="http://www.w3.org/ns/sawsdl"', 1),
        "utf-8")
    out = tmp_path / "out"
    code = cli.run(base_args("annotate", [CORPUS_DIR / "music_catalog.wsdl", bad], out))
    assert code == 1
    assert [p.name for p in out.glob("*.sawsdl.wsdl")] == ["music_catalog.sawsdl.wsdl"]
    err = capsys.readouterr().err
    assert err.count(str(bad)) == 1
    reason = "namespace declaration 'xmlns:' names no prefix"
    assert f"skipped {bad}: {reason}" in err.splitlines()
    assert read_report(out)["skipped"] == [{"path": str(bad), "error": reason}]


def test_non_wsdl_root_is_reported_with_its_path_once(tmp_path, capsys):
    other = tmp_path / "other.wsdl"
    other.write_text("<root/>")
    out = tmp_path / "out"
    code = cli.run(base_args("annotate", [CORPUS_DIR / "music_catalog.wsdl", other], out))
    assert code == 1
    reason = "root element is not wsdl:definitions"
    assert f"skipped {other}: {reason}" in capsys.readouterr().err.splitlines()
    assert read_report(out)["skipped"] == [{"path": str(other), "error": reason}]


IMPORTING = MINIMAL.replace(
    '<wsdl:message name="In">',
    '<wsdl:types><xsd:schema targetNamespace="urn:t">'
    '<xsd:import schemaLocation="loop/x.xsd"/></xsd:schema></wsdl:types>'
    '<wsdl:message name="In">')


def test_schema_location_through_symlink_loop_is_ignored(tmp_path, capsys):
    os.symlink("loop", tmp_path / "loop")
    (tmp_path / "svc.wsdl").write_text(IMPORTING)
    out = tmp_path / "out"
    code = cli.run(base_args(
        "annotate", [tmp_path / "svc.wsdl", CORPUS_DIR / "music_catalog.wsdl"], out))
    # the location is ignored like an import outside the batch; nothing is skipped
    assert code == 0
    assert sorted(p.name for p in out.glob("*.sawsdl.wsdl")) == [
        "music_catalog.sawsdl.wsdl", "svc.sawsdl.wsdl"]
    assert read_report(out)["skipped"] == []
    assert "Traceback" not in capsys.readouterr().err


def test_input_through_symlink_loop_is_skipped(tmp_path, capsys):
    os.symlink("loop", tmp_path / "loop")
    looped = tmp_path / "loop" / "a" / "x.wsdl"
    out = tmp_path / "out"
    code = cli.run(base_args(
        "annotate", [looped, CORPUS_DIR / "music_catalog.wsdl"], out))
    assert code == 1
    assert [p.name for p in out.glob("*.sawsdl.wsdl")] == ["music_catalog.sawsdl.wsdl"]
    skipped = read_report(out)["skipped"]
    assert [s["path"] for s in skipped] == [str(looped)]
    assert skipped[0]["error"].startswith("io error:")
    assert f"skipped {looped}: io error:" in capsys.readouterr().err


def test_output_name_collisions_get_suffixes(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "svc.wsdl").write_text(MINIMAL)
    out = tmp_path / "out"
    code = cli.run(base_args(
        "annotate", [tmp_path / "a" / "svc.wsdl", tmp_path / "b" / "svc.wsdl"], out))
    assert code == 0
    assert (out / "svc.sawsdl.wsdl").exists()
    assert (out / "svc-2.sawsdl.wsdl").exists()


def test_output_dir_equal_to_input_dir_is_stable(tmp_path, capsys):
    shared = tmp_path / "shared"
    shared.mkdir()
    shutil.copy(CORPUS_DIR / "music_catalog.wsdl", shared)
    assert cli.run(base_args("annotate", [shared], shared)) == 0
    first = {p.name: p.read_bytes() for p in shared.iterdir()}
    assert cli.run(base_args("annotate", [shared], shared)) == 0
    second = {p.name: p.read_bytes() for p in shared.iterdir()}
    assert sorted(first) == ["music_catalog.sawsdl.wsdl", "music_catalog.wsdl", "report.json"]
    assert second == first
    assert "annotated 1/2 parameters across 1 files" in capsys.readouterr().err


def test_rerun_with_shorter_outputs_writes_what_a_fresh_run_writes(tmp_path, capsys):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert cli.run(base_args("annotate", [CORPUS_DIR], out)) == 0
    copy = out / "auth_service.sawsdl.wsdl"
    copy.chmod(0o640)
    before = {p.name: p.stat() for p in out.iterdir()}
    umask = os.umask(0o027)
    try:
        for target in (out, fresh):
            assert cli.run(base_args("annotate", [CORPUS_DIR], target)
                           + ["--stages", "none"]) == 0
    finally:
        os.umask(umask)
    written = {p.name: p.read_bytes() for p in fresh.iterdir()}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written
    # fewer modelReference values: the old files were longer, so they were cut
    shorter = {name for name, data in written.items() if before[name].st_size > len(data)}
    assert {"report.json", copy.name} <= shorter
    # a rewritten copy keeps its inode and mode, a new one gets 0o666 less the umask
    assert (copy.stat().st_ino, copy.stat().st_mode) == (before[copy.name].st_ino,
                                                         before[copy.name].st_mode)
    assert copy.stat().st_mode & 0o777 == 0o640
    assert (fresh / copy.name).stat().st_mode & 0o777 == 0o640
    assert (fresh / "report.json").stat().st_mode & 0o777 == 0o640
    capsys.readouterr()


def test_longer_old_ablation_and_word_lists_are_cut(tmp_path, capsys):
    for command, name in (("ablate", "ablation.json"), ("wordfreq", "words.csv")):
        out, fresh = tmp_path / command, tmp_path / f"{command}-fresh"
        out.mkdir()
        (out / name).write_bytes(b"x" * 100_000)
        assert cli.run(base_args(command, [CORPUS_DIR], out)) == 0
        assert cli.run(base_args(command, [CORPUS_DIR], fresh)) == 0
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    capsys.readouterr()


def test_output_symlinked_to_dev_null_is_written(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    os.symlink(os.devnull, out / "words.csv")
    assert cli.run(base_args("wordfreq", [CORPUS_DIR], out)) == 0
    assert (out / "words.csv").is_symlink()
    capsys.readouterr()


def test_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    for command, name in (("annotate", "report.json"), ("ablate", "ablation.json"),
                          ("wordfreq", "words.csv")):
        out = tmp_path / command
        (out / name).mkdir(parents=True)
        assert cli.run(base_args(command, [CORPUS_DIR], out)) == 2
        err = capsys.readouterr().err
        assert f"error: [Errno 21] Is a directory: '{out / name}'\n" in err


def test_written_copies_equal_annotating_the_file_bytes(tmp_path, fixture_corpus,
                                                        search_config, demo_lexicon):
    out = tmp_path / "out"
    assert cli.run(base_args("annotate", [CORPUS_DIR], out)) == 0
    for desc in fixture_corpus.descriptions:
        annotations = annotate_description(desc, search_config, demo_lexicon)
        parsed = parse_wsdl(desc.source_id, Path(desc.source_id).read_bytes())
        expected = write_sawsdl(parsed, annotations)
        written = out / f"{Path(desc.source_id).stem}.sawsdl.wsdl"
        assert written.read_bytes() == expected, desc.source_id


def test_stage_flag_matches_staged_evaluation(tmp_path):
    out_all = tmp_path / "all"
    out_none = tmp_path / "none"
    out_split = tmp_path / "split"
    cli.run(base_args("annotate", [CORPUS_DIR], out_all))
    cli.run(base_args("annotate", [CORPUS_DIR], out_none) + ["--stages", "none"])
    cli.run(base_args("annotate", [CORPUS_DIR], out_split) + ["--stages", "decompose"])
    # these totals mirror the first, second and last ablation rows
    assert read_report(out_none)["summary"]["annotated"] == 8
    assert read_report(out_split)["summary"]["annotated"] == 13
    assert read_report(out_all)["summary"]["annotated"] == 19
    # explore is a stage like the others: it adds the type fallbacks to a split
    out_explore = tmp_path / "explore"
    cli.run(base_args("annotate", [CORPUS_DIR], out_explore)
            + ["--stages", "decompose,explore"])
    assert read_report(out_explore)["summary"]["annotated"] == 19


def test_ablate_writes_json_and_prints_table(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.run(base_args("ablate", [CORPUS_DIR], out))
    assert code == 0
    payload = json.loads((out / "ablation.json").read_text("utf-8"))
    assert [row["annotated"] for row in payload["rows"]] == [8, 13, 14, 13, 19]
    table = capsys.readouterr().out
    assert "+TypeExplorer" in table
    assert "70.37%" in table


def test_wordfreq_writes_csv(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.run(base_args("wordfreq", [CORPUS_DIR], out))
    assert code == 0
    lines = (out / "words.csv").read_text("utf-8").splitlines()
    assert lines[0] == "word,occurrences,concept"
    assert len(lines) > 10
    words = {line.split(",")[0] for line in lines[1:]}
    assert "customer" in words
    assert "counted" in capsys.readouterr().err


def test_overrides_rescue_parameters(tmp_path):
    overrides = tmp_path / "overrides.txt"
    overrides.write_text("play=RecreationOrExercise\n")
    out = tmp_path / "out"
    code = cli.run(base_args("annotate", [CORPUS_DIR], out)
                   + ["--overrides-path", str(overrides)])
    assert code == 0
    assert read_report(out)["summary"]["annotated"] == 20


def test_custom_uri_prefix_flag(tmp_path):
    out = tmp_path / "out"
    cli.run(base_args("annotate", [CORPUS_DIR / "auth_service.wsdl"], out)
            + ["--uri-prefix", "urn:onto#"])
    annotated = (out / "auth_service.sawsdl.wsdl").read_bytes()
    assert b"urn:onto#LinguisticExpression" in annotated


def test_bad_uri_prefix_is_refused_before_any_input_is_read(tmp_path, capsys):
    for prefix, error in (("no-scheme", "must be an absolute URI"),
                          ("http://ex ample.org/o#", "must not contain whitespace"),
                          ("http://example.org/o\x01#", "must contain only XML characters")):
        code = cli.run(base_args("annotate", [tmp_path / "missing.wsdl"], tmp_path / "out")
                       + ["--uri-prefix", prefix])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: uri_prefix {error}: {prefix!r}"]


def test_fatal_errors_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.run(base_args("annotate", [empty], out)) == 2
    # an unknown stage, and lists that name no stage at all
    for stages in ("shuffle", "", ","):
        assert cli.run(base_args("annotate", [CORPUS_DIR], out)
                       + ["--stages", stages]) == 2
    # ablate and wordfreq set the stages themselves and write no copies,
    # so both flags are refused
    for command in ("ablate", "wordfreq"):
        for flag, value in (("--stages", "none"), ("--uri-prefix", "urn:onto#")):
            assert cli.run(base_args(command, [CORPUS_DIR], out) + [flag, value]) == 2
    missing = tmp_path / "missing.tsv"
    assert cli.run(["annotate", "--input-paths", str(CORPUS_DIR),
                    "--output-dir", str(out), "--lexicon-path", str(missing)]) == 2
    assert cli.run(["annotate", "--input-paths", str(CORPUS_DIR)]) == 2
    assert cli.run([]) == 2
    capsys.readouterr()


def test_nothing_parseable_still_reports_why(tmp_path, capsys):
    truncated = tmp_path / "cut.wsdl"
    truncated.write_text(MINIMAL[:120])
    assert cli.run(base_args("annotate", [truncated], tmp_path / "out")) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"skipped {truncated}: ")
    assert lines[1] == "error: no parseable WSDL description in input"


def test_schema_only_batch_says_schemas_are_not_descriptions(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.run(base_args("annotate", [IMPORTS_DIR / "common.xsd"], out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: no parseable WSDL description in input; read 1 schema file "
        "(schema files are import targets, not descriptions)"]


def test_directory_of_written_copies_says_they_were_passed_over(tmp_path, capsys):
    for name in ("a.sawsdl.wsdl", "b.sawsdl.wsdl"):
        shutil.copy(CORPUS_DIR / "music_catalog.wsdl", tmp_path / name)
    assert cli.run(base_args("annotate", [tmp_path], tmp_path / "out")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: no parseable WSDL description in input; passed over 2 written copies "
        "(*.sawsdl.wsdl) in directory listings"]


def test_schema_and_written_copy_notes_share_one_line(tmp_path, capsys):
    shutil.copy(IMPORTS_DIR / "common.xsd", tmp_path)
    shutil.copy(CORPUS_DIR / "music_catalog.wsdl", tmp_path / "a.sawsdl.wsdl")
    assert cli.run(base_args("annotate", [tmp_path], tmp_path / "out")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: no parseable WSDL description in input; read 1 schema file "
        "(schema files are import targets, not descriptions); passed over 1 written copy "
        "(*.sawsdl.wsdl) in directory listings"]


def test_byte_order_mark_in_text_inputs_is_ignored(tmp_path):
    data = LEXICON_PATH.parent
    sources = {"--lexicon-path": data / "lexicon.tsv",
               "--abbreviations-path": data / "abbreviations.txt",
               "--stopwords-path": data / "stopwords.txt",
               "--overrides-path": tmp_path / "overrides.txt"}
    sources["--overrides-path"].write_text("play=RecreationOrExercise\n")
    reports = []
    for bom in (b"", b"\xef\xbb\xbf"):
        copies, out = tmp_path / f"in{len(bom)}", tmp_path / f"out{len(bom)}"
        copies.mkdir()
        args = ["annotate", "--input-paths", str(CORPUS_DIR), "--output-dir", str(out)]
        for flag, source in sources.items():
            copy = copies / source.name
            copy.write_bytes(bom + source.read_bytes())
            args += [flag, str(copy)]
        assert cli.run(args) == 0
        reports.append((out / "report.json").read_bytes())
    # the packaged lists, read by the same decoder, give the same report
    out = tmp_path / "packaged"
    assert cli.run(["annotate", "--input-paths", str(CORPUS_DIR), "--output-dir", str(out),
                    "--lexicon-path", str(sources["--lexicon-path"]),
                    "--overrides-path", str(sources["--overrides-path"])]) == 0
    reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_internal_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("counting failed\non two lines")

    monkeypatch.setattr(cli, "word_frequency", broken)
    out = tmp_path / "out"
    code = cli.run(base_args("wordfreq", [CORPUS_DIR / "music_catalog.wsdl"], out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: internal: RuntimeError: counting failed on two lines"]
    assert "Traceback" not in err


def test_malformed_lexicon_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("word without tabs\n")
    out = tmp_path / "out"
    assert cli.run(["annotate", "--input-paths", str(CORPUS_DIR),
                    "--output-dir", str(out), "--lexicon-path", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--abbreviations-path", "--stopwords-path",
                                  "--overrides-path", "--lexicon-path"])
def test_text_file_that_is_not_utf8_is_named(tmp_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ok\n\xff\n")
    out = tmp_path / "out"
    assert cli.run(base_args("annotate", [CORPUS_DIR], out) + [flag, str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
        "in position 3: invalid start byte"]
    assert not out.exists()


def test_short_flag_aliases(tmp_path):
    out = tmp_path / "out"
    code = cli.run(["annotate",
                    "--input", str(CORPUS_DIR / "music_catalog.wsdl"),
                    "--out", str(out),
                    "--lexicon", str(LEXICON_PATH)])
    assert code == 0
    assert (out / "music_catalog.sawsdl.wsdl").exists()


@pytest.mark.parametrize("command", ["annotate", "ablate", "wordfreq"])
def test_every_unique_prefix_of_a_flag_parses_as_the_flag(command):
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    actions = {next(spelling for spelling in action.option_strings if spelling.startswith("--")):
               action for action in subparsers.choices[command]._actions if action.option_strings}
    required = [flag for flag, action in actions.items() if action.required]

    def parse(flag, spelling):
        argv = [command]
        for name in required:
            argv += [spelling if name == flag else name, "3"]
        if flag not in required:
            argv += [spelling, "3"]
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None

    refused = []
    for flag in actions.keys() - {"--help"}:
        expected = parse(flag, flag)
        assert expected is not None, flag
        prefixes = [flag[:end] for end in range(3, len(flag))]
        refused += [prefix for prefix in prefixes
                    if sum(other.startswith(prefix) for other in actions) == 1
                    and parse(flag, prefix) != expected]
    assert sorted(refused) == []


def test_a_run_leaves_no_garbage_cycle_per_file(tmp_path, capsys, monkeypatch):
    """run() turns the cyclic collector off: the garbage a run leaves must
    not grow with the number of input files, and the caller's setting comes
    back afterwards."""
    fixtures = sorted(CORPUS_DIR.glob("*.wsdl"))

    def garbage_after_run(copies):
        batch = tmp_path / f"in{copies}"
        batch.mkdir()
        for copy in range(copies):
            for fixture in fixtures:
                shutil.copy(fixture, batch / f"{copy}-{fixture.name}")
        gc.collect()
        gc.disable()
        try:
            assert cli.run(base_args("annotate", [batch], tmp_path / f"out{copies}")) == 0
            return gc.collect()
        finally:
            gc.enable()

    assert garbage_after_run(10) == garbage_after_run(30)
    collecting_inside = []
    load_corpus = cli.load_corpus

    def watched_load_corpus(paths):
        collecting_inside.append(gc.isenabled())
        return load_corpus(paths)

    monkeypatch.setattr(cli, "load_corpus", watched_load_corpus)
    args = base_args("annotate", [tmp_path / "in10"], tmp_path / "out")
    try:
        for collecting in (True, False):
            if not collecting:
                gc.disable()
            assert cli.run(args) == 0
            assert gc.isenabled() is collecting
            assert cli.main(args) == 0
            assert gc.isenabled() is collecting
            gc.unfreeze()  # main() froze this test process's objects on its way out
    finally:
        gc.enable()
    assert collecting_inside == [False] * 4
    capsys.readouterr()


def test_run_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    assert cli.run(base_args("ablate", [CORPUS_DIR], tmp_path / "out")) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before
    capsys.readouterr()


def test_main_as_the_program_entry_prints_what_run_prints(tmp_path, capsys):
    """main() freezes the collector before the process exits; the exit code
    and all buffered output still come out as run() gives them."""
    args = base_args("ablate", [CORPUS_DIR], tmp_path / "out")
    code = cli.run(args)
    printed = capsys.readouterr()
    written = tmp_path / "out" / "ablation.json"
    ablation = written.read_bytes()
    written.unlink()
    # stdout to a pipe is block-buffered, as under a shell redirect
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    child = subprocess.run(
        [sys.executable, "-c", "import sys; from semwsdl.cli import main; sys.exit(main())",
         *args], capture_output=True, env=env, check=False, timeout=120)
    assert (child.returncode, child.stdout.decode(), child.stderr.decode()) == (
        code, printed.out, printed.err)
    assert "+TypeExplorer" in printed.out
    assert written.read_bytes() == ablation


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("command", ["annotate", "ablate", "wordfreq"])
def test_fifo_input_is_skipped_not_waited_on(tmp_path, command):
    fifo = tmp_path / "pipe.wsdl"
    os.mkfifo(fifo)
    good = tmp_path / "good.wsdl"
    good.write_text(MINIMAL, "utf-8")
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    # a run that waits on the FIFO fails the test on the timeout, never hangs it
    child = subprocess.run(
        [sys.executable, "-c", "import sys; from semwsdl.cli import main; sys.exit(main())",
         *base_args(command, [fifo, good], out)],
        capture_output=True, env=env, check=False, timeout=60)
    assert child.returncode == 1
    assert child.stderr.decode().startswith(f"skipped {fifo}: not a regular file\n")
    if command == "annotate":
        assert read_report(out)["skipped"] == [{"path": str(fifo), "error": "not a regular file"}]
        assert sorted(p.name for p in out.iterdir()) == ["good.sawsdl.wsdl", "report.json"]


def run_child(args):
    """The program run on args in a child; one that waits fails on the timeout."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", "import sys; from semwsdl.cli import main; sys.exit(main())",
         *map(str, args)], capture_output=True, env=env, check=False, timeout=60)


CONFIG_FLAGS = ["--lexicon-path", "--abbreviations-path", "--stopwords-path", "--overrides-path"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("flag", CONFIG_FLAGS)
def test_fifo_config_file_is_refused_not_waited_on(tmp_path, flag):
    fifo = tmp_path / "config.txt"
    os.mkfifo(fifo)
    good = tmp_path / "good.wsdl"
    good.write_text(MINIMAL, "utf-8")
    out = tmp_path / "out"
    child = run_child(base_args("annotate", [good], out) + [flag, fifo])
    assert (child.returncode, child.stdout, child.stderr.decode()) == (
        2, b"", f"error: {fifo}: not a regular file\n")
    assert not out.exists()


def test_directory_as_config_file_is_refused(tmp_path, capsys):
    folder = tmp_path / "config"
    folder.mkdir()
    out = tmp_path / "out"
    for flag in CONFIG_FLAGS:
        assert cli.run(base_args("annotate", [CORPUS_DIR], out) + [flag, str(folder)]) == 2
        assert capsys.readouterr().err == f"error: {folder}: not a regular file\n"
    assert not out.exists()


def test_config_path_is_opened_as_typed(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text("# nothing\n", "utf-8")
    out = tmp_path / "out"
    for flag in CONFIG_FLAGS:
        # pathlib would drop the slash and read the file
        assert cli.run(base_args("annotate", [CORPUS_DIR], out) + [flag, f"{config}/"]) == 2
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{config}/'\n"
    missing = f"{tmp_path}/./missing.txt"
    assert cli.run(base_args("annotate", [CORPUS_DIR], out) + ["--lexicon-path", missing]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not out.exists()


def fifo_output(path, reader):
    """A FIFO at path, with a reader open when `reader`; the reader's fd or None."""
    os.mkfifo(path)
    return os.open(path, os.O_RDONLY | os.O_NONBLOCK) if reader else None


def fifo_write_error(path, reader):
    # a FIFO without a reader fails the open; one with a reader fails the check
    return f"{path}: is a FIFO" if reader else f"[Errno 6] No such device or address: '{path}'"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("reader", [False, True], ids=["no-reader", "reader"])
@pytest.mark.parametrize("command,name", [("annotate", "report.json"),
                                          ("ablate", "ablation.json"),
                                          ("wordfreq", "words.csv")])
def test_fifo_at_a_run_output_exits_2_not_waited_on(tmp_path, command, name, reader):
    out = tmp_path / "out"
    out.mkdir()
    fd = fifo_output(out / name, reader)
    try:
        child = run_child(base_args(command, [CORPUS_DIR / "music_catalog.wsdl"], out))
    finally:
        if fd is not None:
            os.close(fd)
    assert child.returncode == 2
    assert child.stderr.decode().endswith(f"error: {fifo_write_error(out / name, reader)}\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("reader", [False, True], ids=["no-reader", "reader"])
def test_fifo_at_a_copy_is_a_skipped_entry_not_waited_on(tmp_path, reader):
    out = tmp_path / "out"
    out.mkdir()
    source = CORPUS_DIR / "auth_service.wsdl"
    fd = fifo_output(out / "auth_service.sawsdl.wsdl", reader)
    try:
        child = run_child(base_args("annotate", [source, CORPUS_DIR / "music_catalog.wsdl"], out))
    finally:
        if fd is not None:
            os.close(fd)
    error = f"write error: {fifo_write_error(out / 'auth_service.sawsdl.wsdl', reader)}"
    assert child.returncode == 1
    assert child.stderr.decode().startswith(f"skipped {source}: {error}\n")
    assert read_report(out)["skipped"] == [{"path": str(source), "error": error}]
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == [
        "music_catalog.sawsdl.wsdl", "report.json"]


@pytest.mark.parametrize("command", ["annotate", "ablate", "wordfreq"])
def test_name_that_is_not_utf8_is_shown_with_escapes(tmp_path, capsys, command):
    folder = tmp_path / "in"
    folder.mkdir()
    good, bad = (folder / os.fsdecode(name) for name in (b"a\xff.wsdl", b"b\xff.wsdl"))
    try:
        good.write_text(MINIMAL, "utf-8")
        bad.write_bytes(b"<broken")
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    out = tmp_path / "out"
    code = cli.run(base_args(command, [folder], out))
    err = capsys.readouterr().err
    good_id, bad_id = f"{folder}{os.sep}a\\xff.wsdl", f"{folder}{os.sep}b\\xff.wsdl"
    assert code == 1
    assert err.startswith(f"skipped {bad_id}: XML parse error: ")
    if command == "annotate":
        report = read_report(out)
        assert [s["path"] for s in report["skipped"]] == [bad_id]
        assert [p["param_id"] for p in report["parameters"]] == [f"{good_id}::Find::input::city"]
        assert sorted(os.listdir(os.fsencode(out))) == [b"a\xff.sawsdl.wsdl", b"report.json"]


@pytest.mark.parametrize("command", ["annotate", "ablate", "wordfreq"])
def test_a_raw_byte_and_its_escape_spelled_out_get_distinct_ids(tmp_path, capsys, command):
    if os.sep == "\\":
        pytest.skip("a backslash is the path separator")
    folder = tmp_path / "in"
    folder.mkdir()
    names = [b"a\xff.wsdl", b"a\\xff.wsdl", b"b\xff.wsdl", b"b\\xff.wsdl"]
    try:
        for name in names:
            (folder / os.fsdecode(name)).write_bytes(
                b"<broken" if name.startswith(b"b") else MINIMAL.encode())
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    out = tmp_path / "out"
    code = cli.run(base_args(command, [folder], out))
    err = capsys.readouterr().err
    # the literal backslash is written as two, so it cannot pass for an escape
    raw_a, literal_a, raw_b, literal_b = (
        f"{folder}{os.sep}{name}" for name in ("a\\xff.wsdl", "a\\\\xff.wsdl",
                                              "b\\xff.wsdl", "b\\\\xff.wsdl"))
    assert code == 1
    skipped = [line.split(": ")[0] for line in err.splitlines() if line.startswith("skipped ")]
    assert skipped == [f"skipped {literal_b}", f"skipped {raw_b}"]
    if command == "annotate":
        report = read_report(out)
        assert [s["path"] for s in report["skipped"]] == [literal_b, raw_b]
        assert [p["param_id"] for p in report["parameters"]] == [
            f"{literal_a}::Find::input::city", f"{raw_a}::Find::input::city"]
        assert sorted(os.listdir(os.fsencode(out))) == [
            b"a\\xff.sawsdl.wsdl", b"a\xff.sawsdl.wsdl", b"report.json"]


def test_listed_entries_that_are_no_regular_file_are_skipped_as_when_named(tmp_path):
    listed = tmp_path / "in"
    listed.mkdir()
    (listed / "good.wsdl").write_text(MINIMAL, "utf-8")
    os.symlink("nothing", listed / "dangling.wsdl")
    os.symlink("loop.wsdl", listed / "loop.wsdl")
    if hasattr(os, "mkfifo"):
        os.mkfifo(listed / "pipe.wsdl")
    folder = listed / "sub.xsd"
    folder.mkdir()

    def run(inputs, out):
        child = run_child(base_args("annotate", inputs, out))
        lines = [line for line in child.stderr.decode().splitlines()
                 if line.startswith("skipped ")]
        return child.returncode, lines, read_report(out)["skipped"]

    entries = sorted(listed.iterdir())
    code, lines, skipped = run([listed], tmp_path / "listed")
    # a directory named by flag is listed, so the folder's entry is spelled out
    named_code, named_lines, named_skipped = run(
        [entry for entry in entries if entry != folder], tmp_path / "named")
    assert code == named_code == 1
    assert [s["path"] for s in skipped] == [str(e) for e in entries if e.name != "good.wsdl"]
    assert lines == named_lines + [f"skipped {folder}: not a regular file"]
    assert skipped == named_skipped + [{"path": str(folder), "error": "not a regular file"}]
