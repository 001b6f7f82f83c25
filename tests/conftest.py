"""Test settings shared by every module.

With ``CI`` set, hypothesis loads the ``ci`` profile: it prints a
``@reproduce_failure`` blob with every falsifying example, so a failure
seen only on a CI runner replays locally.  Nothing else changes.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
