#!/usr/bin/env python3
"""Name every library module that no program links.

A module is lib/<dir>/<name>.ml. The programs are the .ml files under
bin/, bench/, examples/ and perfbench/ocaml/. A module is reached when a
program, or a module already reached, refers to it: within its own
library by its bare name, from outside through the library's wrapper
name (``Ef_collector.Snapshot``, ``module C = Ef_collector`` ...
``C.Snapshot``, ``open Ef_util`` ... ``Rng.int``). A library with an
``ef_*.ml`` entry module is reached through that module alone, which
reaches the rest of its library by name.

The match is lexical, over the source with comments and string literals
removed, and errs towards "reached". Prints each unreached module and
exits 1 if there is one; exits 0 otherwise. Run from the repository
root:

    python3 scripts/check_linked.py
"""

import os
import re
import sys

ROOTS = ["bin", "bench", "examples", os.path.join("perfbench", "ocaml")]

# a module in reference position: a path component, or the target of
# open/include/module alias
DOTTED = re.compile(r"\b([A-Z][A-Za-z0-9_']*)\s*\.")
BINDER = re.compile(
    r"\b(?:open!?|include|module\s+[A-Z][A-Za-z0-9_']*\s*=)\s*([A-Z][A-Za-z0-9_']*)"
)


def strip(src):
    """Drop (nested) comments, string and character literals."""
    out, i, depth, n = [], 0, 0, len(src)
    while i < n:
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif src[i] == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            out.append(" ")
        elif src.startswith("'\"'", i):
            i += 3
        else:
            if not depth:
                out.append(src[i])
            i += 1
    return "".join(out)


def names(path):
    with open(path, encoding="utf-8") as f:
        src = strip(f.read())
    return set(DOTTED.findall(src)) | set(BINDER.findall(src))


def libraries():
    """{wrapper name: (entry module or None, {module name: path})}"""
    libs = {}
    for d in sorted(os.listdir("lib")):
        dune = os.path.join("lib", d, "dune")
        if not os.path.isfile(dune):
            continue
        with open(dune, encoding="utf-8") as f:
            m = re.search(r"\(name\s+([a-z0-9_]+)\)", f.read())
        if not m:
            continue
        modules = {
            f[:-3].capitalize(): os.path.join("lib", d, f)
            for f in sorted(os.listdir(os.path.join("lib", d)))
            if f.endswith(".ml")
        }
        entry = next((m for m in modules if m.startswith("Ef_")), None)
        libs[m.group(1).capitalize()] = (entry, modules)
    return libs


def main():
    libs = libraries()
    owner = {
        path: lib for lib, (_, modules) in libs.items() for path in modules.values()
    }
    reached, todo = set(), []

    def reach(path):
        if path not in reached:
            reached.add(path)
            todo.append(path)

    def refer(path):
        used = names(path)
        home = owner.get(path)
        for lib, (entry, modules) in libs.items():
            if lib == home:
                for name, target in modules.items():
                    if name in used and target != path:
                        reach(target)
            elif lib in used:
                if entry is not None:
                    reach(modules[entry])
                else:
                    for name, target in modules.items():
                        if name in used:
                            reach(target)

    for root in ROOTS:
        for dirpath, _, files in os.walk(root):
            for f in sorted(files):
                if f.endswith(".ml"):
                    refer(os.path.join(dirpath, f))
    while todo:
        refer(todo.pop())

    unreached = sorted(set(owner) - reached)
    for path in unreached:
        lib = owner[path]
        name = os.path.basename(path)[:-3].capitalize()
        print(f"{path}: {lib}.{name} is linked by no program")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
