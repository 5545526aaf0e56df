"""``python -m dgflow``: the refinement-study command line."""

from .harness import main

if __name__ == "__main__":
    main()
