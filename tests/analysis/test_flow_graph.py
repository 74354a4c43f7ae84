"""Flow-layer mechanics: symbol resolution and the call graph.

Synthetic mini-projects are written to ``tmp_path`` and parsed with
:func:`repro.analysis.build_project`, so each test states its whole
world in a few lines of fixture source.
"""

from repro.analysis import build_project


def write_pkg(root, name, modules):
    pkg = root / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text(modules.pop("__init__", ""), encoding="utf-8")
    for mod, source in modules.items():
        (pkg / f"{mod}.py").write_text(source, encoding="utf-8")
    return str(pkg)


def callees_of(graph, qualname):
    """The graph's edges out of *qualname*, in edge order."""
    return [edge for edge in graph.edges if edge.caller == qualname]


# -- call graph --------------------------------------------------------------

def test_relative_import_resolves_to_call_edge(tmp_path):
    pkg = write_pkg(tmp_path, "rel", {
        "a": (
            "from .b import thing\n"
            "\n"
            "\n"
            "def use():\n"
            "    return thing()\n"
        ),
        "b": "def thing():\n    return 1\n",
    })
    project = build_project([pkg])
    edges = callees_of(project.callgraph, "rel.a.use")
    assert [(e.callee, e.kind) for e in edges] == [("rel.b.thing", "direct")]


OBSERVER_PKG = {
    "hub": (
        "class Hub:\n"
        "    def __init__(self):\n"
        "        self.on_boom = []\n"
        "\n"
        "    def fire(self):\n"
        "        for callback in self.on_boom:\n"
        "            callback('x')\n"
    ),
    "user": (
        "from obs.hub import Hub\n"
        "\n"
        "\n"
        "def handle(arg):\n"
        "    return arg\n"
        "\n"
        "\n"
        "def wire(hub: Hub):\n"
        "    hub.on_boom.append(handle)\n"
    ),
}


def test_observer_registration_and_dispatch(tmp_path):
    pkg = write_pkg(tmp_path, "obs", dict(OBSERVER_PKG))
    project = build_project([pkg])
    graph = project.callgraph
    assert graph.observers == {"on_boom": ("obs.user.handle",)} or (
        graph.observers.get("on_boom") == ["obs.user.handle"]
    )
    edges = callees_of(graph, "obs.hub.Hub.fire")
    observer_edges = [e for e in edges if e.kind == "observer"]
    assert [e.callee for e in observer_edges] == ["obs.user.handle"]


HOOKS_PKG = {
    "node": (
        "class Hooks:\n"
        "    def __init__(self):\n"
        "        self.crash = []\n"
        "\n"
        "\n"
        "class Node:\n"
        "    def __init__(self, hooks: Hooks):\n"
        "        self.hooks = hooks\n"
        "\n"
        "    def crash(self):\n"
        "        for callback in self.hooks.crash:\n"
        "            callback(self)\n"
    ),
    "user": (
        "from hk.node import Node\n"
        "\n"
        "\n"
        "def handle(node):\n"
        "    return node\n"
        "\n"
        "\n"
        "def wire(node: Node):\n"
        "    node.hooks.register('crash', handle)\n"
    ),
}


def test_hook_table_registration_and_dispatch(tmp_path):
    pkg = write_pkg(tmp_path, "hk", dict(HOOKS_PKG))
    graph = build_project([pkg]).callgraph
    assert graph.observers == {"hooks.crash": ["hk.user.handle"]}
    edges = callees_of(graph, "hk.node.Node.crash")
    assert [(e.callee, e.kind) for e in edges] == [("hk.user.handle", "observer")]


def test_reexport_resolves_through_package(tmp_path):
    pkg = write_pkg(tmp_path, "pkg2", {
        "__init__": "from pkg2.impl import Widget\n",
        "impl": (
            "class Widget:\n"
            "    def ping(self):\n"
            "        return 1\n"
        ),
        "use": (
            "from pkg2 import Widget\n"
            "\n"
            "\n"
            "def make():\n"
            "    w = Widget()\n"
            "    return w.ping()\n"
        ),
    })
    project = build_project([pkg])
    callees = {e.callee for e in callees_of(project.callgraph, "pkg2.use.make")}
    assert "pkg2.impl.Widget.__init__" in callees or "pkg2.impl.Widget.ping" in callees
    # the typed local lets the .ping() receiver resolve exactly
    assert "pkg2.impl.Widget.ping" in callees


def test_self_and_direct_call_edges(tmp_path):
    pkg = write_pkg(tmp_path, "walk", {
        "m": (
            "class A:\n"
            "    def top(self):\n"
            "        return self._mid()\n"
            "\n"
            "    def _mid(self):\n"
            "        return leaf()\n"
            "\n"
            "\n"
            "def leaf():\n"
            "    return 1\n"
            "\n"
            "\n"
            "def unrelated():\n"
            "    return 2\n"
        ),
    })
    project = build_project([pkg])
    graph = project.callgraph
    top = [(e.callee, e.kind) for e in callees_of(graph, "walk.m.A.top")]
    assert ("walk.m.A._mid", "self") in top
    mid = [(e.callee, e.kind) for e in callees_of(graph, "walk.m.A._mid")]
    assert ("walk.m.leaf", "direct") in mid
    assert graph.callers_of("walk.m.unrelated") == []
