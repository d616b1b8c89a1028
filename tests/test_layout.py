import re
from pathlib import Path

import rpg


def test_import_layout_names_every_module_exactly_once():
    listed = re.findall(r"^    rpg\.(\w+) ", rpg.__doc__, flags=re.MULTILINE)
    modules = sorted(p.stem for p in Path(rpg.__file__).parent.glob("*.py")
                     if p.stem != "__init__")
    assert sorted(listed) == modules
