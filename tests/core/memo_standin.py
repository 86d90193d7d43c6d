"""Test oracle for the controller's service memo: never answer, so every
decision is recomputed by the code that runs on a real miss."""


class AlwaysMiss:
    def get(self, key):
        return (False, None)

    def store(self, key, value):
        pass

    def flush(self):
        pass

    def stats(self):
        return {"entries": 0, "hits": 0, "misses": 0, "revalidations": 0,
                "invalidations": 0, "flushes": 0}


def disable_memos(controller):
    """Swap the service memo's ``RevalidatingCache`` for the always-miss
    oracle."""
    controller._service_memo = AlwaysMiss()
