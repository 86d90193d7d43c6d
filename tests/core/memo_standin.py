"""Test oracle for the controller's memos: never answer, so every decision
is recomputed by the code that runs on a real miss."""


class AlwaysMiss:
    def get(self, key):
        return (False, None)

    def store(self, key, value):
        pass

    def flush(self):
        pass


def disable_memos(controller):
    """Swap both ``RevalidatingCache`` instances for the always-miss oracle."""
    controller._service_memo = controller._plan_memo = AlwaysMiss()
