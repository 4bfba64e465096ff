"""Run the gpncodec CLI with its layers traced from outside the package.

Usage: python bench/clichild.py SPANS_FILE {time,alloc} CLI_ARGS...

Traced passes of the cli-files workload start this in place of
`python -m gpncodec.cli`; it writes the child's spans to SPANS_FILE and
exits with the CLI's own status.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(mode)
    import gpncodec.cli

    tracer.install()
    try:
        code = gpncodec.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
