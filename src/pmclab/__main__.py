import gc
import sys

from .cli import main

if __name__ == "__main__":
    # the imported modules live until exit: keep every full collection off them
    gc.freeze()
    sys.exit(main())
