"""The code-line counter, ``tests/code_lines.py``, on small generated modules."""

from code_lines import code_lines, main


def count(tmp_path, source: str) -> int:
    path = tmp_path / "module.py"
    path.write_text(source, encoding="utf-8")
    return code_lines(path)


def test_module_class_and_function_docstrings_count_nothing(tmp_path):
    body = (
        "class A:\n"
        "{class_doc}"
        "    def f(self):\n"
        "{function_doc}"
        "        return 1\n"
        "\n"
        "async def g():\n"
        "{async_doc}"
        "    return 2\n"
    )
    bare = body.format(class_doc="", function_doc="", async_doc="")
    documented = '"""The module,\nover two lines."""\n' + body.format(
        class_doc='    """The class."""\n',
        function_doc='        """The method,\n\n        over three lines."""\n',
        async_doc="    'A one-quote docstring.'\n",
    )
    assert count(tmp_path, bare) == 5
    assert count(tmp_path, documented) == 5


def test_a_string_that_is_no_docstring_counts_on_every_line_it_spans(tmp_path):
    assert count(tmp_path, 'x = """one,\ntwo,\nthree"""\n') == 3
    # a string statement after a body's first statement is no docstring
    assert count(tmp_path, 'def f():\n    x = 1\n    """not a\n    docstring"""\n') == 4


def test_comment_only_and_blank_lines_count_nothing(tmp_path):
    assert count(tmp_path, "# a comment\n\nx = 1\n    \n    # an indented comment\n\n") == 1


def test_a_line_with_code_and_a_trailing_comment_counts_once(tmp_path):
    assert count(tmp_path, "x = 1  # one\n") == 1
    assert count(tmp_path, "x = (1 +  # two\n     2)  # lines\n") == 2


def test_main_prints_one_line_per_module_in_name_order_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "a.py").write_text('"""Doc."""\nz = 3\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1 a.py",
        "     2 b.py",
        "     3 total",
    ]
